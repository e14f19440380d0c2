package data

import (
	"testing"
)

func catalogFixture(t *testing.T) (*Catalog, *Table, *Index) {
	t.Helper()
	c := NewCatalog()
	tab := lineitemLike()
	tab.AddPartition(1000, "")
	tab.AddPartition(1000, "")
	tab.AddPartition(1000, "")
	if err := c.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(tab, "orderkey")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterIndex(idx); err != nil {
		t.Fatal(err)
	}
	return c, tab, idx
}

func TestCatalogRegistration(t *testing.T) {
	c, tab, idx := catalogFixture(t)
	if err := c.AddTable(tab); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := c.RegisterIndex(idx); err == nil {
		t.Error("duplicate index accepted")
	}
	other := NewTable("orphan", Column{Name: "x", AvgSize: 4})
	oidx, _ := NewIndex(other, "x")
	if _, err := c.RegisterIndex(oidx); err == nil {
		t.Error("index on unregistered table accepted")
	}
	if names := c.IndexNames(); len(names) != 1 || names[0] != "lineitem/orderkey" {
		t.Errorf("IndexNames = %v", names)
	}
}

func TestBuildStateLifecycle(t *testing.T) {
	c, _, idx := catalogFixture(t)
	st := c.State(idx.Name())
	if st.BuiltCount() != 0 {
		t.Error("fresh state should be unbuilt")
	}
	if c.Available(idx.Name()) {
		t.Error("unbuilt index reported available")
	}
	if err := st.MarkBuilt(0, 100); err != nil {
		t.Fatal(err)
	}
	if !c.Available(idx.Name()) {
		t.Error("index with one built partition not available (incremental use)")
	}
	if got := st.BuiltFraction(); got != 1.0/3 {
		t.Errorf("BuiltFraction = %g, want 1/3", got)
	}
	if ps := st.Part(0); !ps.Built || ps.BuiltAt != 100 {
		t.Errorf("Part(0) = %+v", ps)
	}
	if missing := st.MissingPartitions(); len(missing) != 2 || missing[0] != 1 || missing[1] != 2 {
		t.Errorf("MissingPartitions = %v, want [1 2]", missing)
	}
	st.MarkBuilt(1, 150)
	st.MarkBuilt(2, 160)
	if st.BuiltCount() != 3 || len(st.MissingPartitions()) != 0 {
		t.Errorf("BuiltCount = %d with %v missing after building all", st.BuiltCount(), st.MissingPartitions())
	}
	if err := st.MarkBuilt(99, 0); err == nil {
		t.Error("MarkBuilt on unknown partition accepted")
	}
}

func TestBuiltPathsAndSize(t *testing.T) {
	c, tab, idx := catalogFixture(t)
	st := c.State(idx.Name())
	st.MarkBuilt(1, 10)
	st.MarkBuilt(0, 20)
	paths := st.BuiltPaths()
	if len(paths) != 2 || paths[0] != "idx/lineitem/orderkey/0" || paths[1] != "idx/lineitem/orderkey/1" {
		t.Errorf("BuiltPaths = %v", paths)
	}
	want := 2 * idx.PartitionSizeMB(tab.Partitions[0])
	if got := st.BuiltSizeMB(); got != want {
		t.Errorf("BuiltSizeMB = %g, want %g", got, want)
	}
	if got := c.BuiltSizeMB(); got != want {
		t.Errorf("catalog BuiltSizeMB = %g, want %g", got, want)
	}
}

func TestDrop(t *testing.T) {
	c, _, idx := catalogFixture(t)
	st := c.State(idx.Name())
	st.MarkBuilt(0, 10)
	freed := c.Drop(idx.Name())
	if len(freed) != 1 || freed[0] != "idx/lineitem/orderkey/0" {
		t.Errorf("Drop freed %v", freed)
	}
	if c.Available(idx.Name()) {
		t.Error("dropped index still available")
	}
	if got := c.Drop("missing"); got != nil {
		t.Errorf("Drop(missing) = %v, want nil", got)
	}
}

func TestApplyUpdateInvalidatesIndexes(t *testing.T) {
	c, tab, idx := catalogFixture(t)
	st := c.State(idx.Name())
	st.MarkBuilt(0, 10)
	st.MarkBuilt(1, 10)

	freed, err := c.ApplyUpdate("lineitem", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(freed) != 1 || freed[0] != "idx/lineitem/orderkey/0" {
		t.Errorf("ApplyUpdate freed %v", freed)
	}
	if tab.Partitions[0].Version != 1 {
		t.Errorf("partition version = %d, want 1", tab.Partitions[0].Version)
	}
	if ps := st.Part(0); ps.Built {
		t.Error("index partition 0 still built after update")
	}
	if ps := st.Part(1); !ps.Built {
		t.Error("index partition 1 lost by unrelated update")
	}

	if _, err := c.ApplyUpdate("missing", 0); err == nil {
		t.Error("ApplyUpdate on unknown table accepted")
	}
	if _, err := c.ApplyUpdate("lineitem", 99); err == nil {
		t.Error("ApplyUpdate on unknown partition accepted")
	}
}

func TestAvailableSet(t *testing.T) {
	c, _, idx := catalogFixture(t)
	if c.AvailableCount() != 0 || c.Available(idx.Name()) {
		t.Error("an index is available on a fresh catalog")
	}
	c.State(idx.Name()).MarkBuilt(0, 5)
	if c.AvailableCount() != 1 || !c.Available(idx.Name()) {
		t.Errorf("AvailableCount = %d, Available(%s) = %v after one built partition",
			c.AvailableCount(), idx.Name(), c.Available(idx.Name()))
	}
}

// TestKeptReadsFollowTheirWriters: IndexNames, BuiltCount and AvailableCount
// are kept facts, not recomputations, so each is checked against a recount
// after every kind of write that can move it.
func TestKeptReadsFollowTheirWriters(t *testing.T) {
	c, tab, idx := catalogFixture(t)
	if names := c.IndexNames(); len(names) != 1 {
		t.Fatalf("IndexNames = %v", names)
	}
	second, err := NewIndex(tab, "commitdate")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterIndex(second); err != nil {
		t.Fatal(err)
	}
	names := c.IndexNames()
	if len(names) != 2 || names[0] != "lineitem/commitdate" || names[1] != "lineitem/orderkey" {
		t.Errorf("IndexNames after a second RegisterIndex = %v, want both, sorted", names)
	}
	for _, name := range names {
		if got := c.State(name).Name(); got != name {
			t.Errorf("State(%q).Name() = %q", name, got)
		}
	}

	st := c.State(idx.Name())
	recount := func(after string) {
		t.Helper()
		built := 0
		for _, p := range tab.Partitions {
			if st.Part(p.ID).Built {
				built++
			}
		}
		if got := st.BuiltCount(); got != built {
			t.Errorf("after %s: BuiltCount = %d, %d partitions are built", after, got, built)
		}
		available := 0
		for _, name := range c.IndexNames() {
			if c.Available(name) {
				available++
			}
		}
		if got := c.AvailableCount(); got != available {
			t.Errorf("after %s: AvailableCount = %d, %d indexes are available", after, got, available)
		}
	}
	recount("registration")
	st.MarkBuilt(0, 10)
	st.MarkBuilt(2, 11)
	st.MarkBuilt(2, 12) // again: one partition, not two
	recount("MarkBuilt")
	st.Invalidate(0)
	st.Invalidate(1) // never built
	recount("Invalidate")
	if _, err := c.ApplyUpdate("lineitem", 2); err != nil {
		t.Fatal(err)
	}
	recount("ApplyUpdate")
	st.MarkBuilt(1, 13)
	st.Reset()
	recount("Reset")
}
