package sim

import (
	"reflect"
	"testing"

	"idxflow/internal/fault"
	"idxflow/internal/sched"
)

// TestExecutorReuseEqualsFresh replays a sequence of schedules and plans on
// one executor, as a tenant's service does, and requires every Result to
// equal a fresh executor's. The sequence alternates faulty and fault-free
// runs and shrinks the schedule, so state a run leaves in the executor
// (the scratch arena, the container table, the repaired copy of a faulty
// run's schedule) would show in the next one. A faulty replay must also
// leave the caller's schedule as planned.
func TestExecutorReuseEqualsFresh(t *testing.T) {
	packed := goldenSchedule(t, 7, 0, true)
	other := goldenSchedule(t, 11, 1, true)
	if other.Containers() < 2 {
		t.Fatalf("second schedule holds %d containers, want at least 2", other.Containers())
	}
	small, _, _, _ := twoContPlan(t)
	mid := other.Makespan() / 2
	steps := []struct {
		name   string
		s      *sched.Schedule
		faults []fault.Event
	}{
		{"packed faulty", packed, fault.Generate(0.5, 60, 1200, 1).From(0)},
		{"packed fault-free", packed, nil},
		{"other revoked and crashed", other, []fault.Event{
			{Kind: fault.SpotRevocation, At: mid, Container: 0, NoticeSeconds: 30, Seq: 0},
			{Kind: fault.ContainerCrash, At: mid / 2, Container: 1, Seq: 1},
		}},
		{"small crashed", small, []fault.Event{{Kind: fault.ContainerCrash, At: 5, Container: 0}}},
	}
	reused := New(cfg())
	for _, st := range steps {
		before, money := st.s.Assignments(), st.s.MoneyQuanta()
		got := reused.Execute(nil, st.s, st.faults)
		want := New(cfg()).Execute(nil, st.s, st.faults)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused executor's Result diverges from a fresh one's\n got: %+v\nwant: %+v", st.name, got, want)
		}
		if len(st.faults) == 0 {
			continue
		}
		if got.ReplacedOps == 0 {
			t.Errorf("%s: the plan re-placed no operator", st.name)
		}
		if after := st.s.Assignments(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the replay changed the caller's assignments\nbefore: %v\n after: %v", st.name, before, after)
		}
		if m := st.s.MoneyQuanta(); m != money {
			t.Errorf("%s: the replay changed the caller's MoneyQuanta from %g to %g", st.name, money, m)
		}
	}
}
