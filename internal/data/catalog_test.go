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
	if err := st.MarkBuilt(0); err != nil {
		t.Fatal(err)
	}
	if !c.Available(idx.Name()) {
		t.Error("index with one built partition not available (incremental use)")
	}
	if got := st.BuiltFraction(); got != 1.0/3 {
		t.Errorf("BuiltFraction = %g, want 1/3", got)
	}
	if !st.Built(0) || st.Built(1) {
		t.Errorf("Built(0), Built(1) = %v, %v, want true, false", st.Built(0), st.Built(1))
	}
	if missing := st.MissingPartitions(); len(missing) != 2 || missing[0] != 1 || missing[1] != 2 {
		t.Errorf("MissingPartitions = %v, want [1 2]", missing)
	}
	st.MarkBuilt(1)
	st.MarkBuilt(2)
	if st.BuiltCount() != 3 || len(st.MissingPartitions()) != 0 {
		t.Errorf("BuiltCount = %d with %v missing after building all", st.BuiltCount(), st.MissingPartitions())
	}
	if err := st.MarkBuilt(99); err == nil {
		t.Error("MarkBuilt on unknown partition accepted")
	}
}

// TestFootprint: the catalog's footprint is the built partitions' sizes
// and count, across indexes.
func TestFootprint(t *testing.T) {
	c, tab, idx := catalogFixture(t)
	if mb, parts := c.Footprint(); mb != 0 || parts != 0 {
		t.Errorf("fresh catalog: Footprint = %g MB, %d parts, want none", mb, parts)
	}
	st := c.State(idx.Name())
	st.MarkBuilt(1)
	st.MarkBuilt(0)
	want := 2 * idx.PartitionSizeMB(tab.Partitions[0])
	if got := st.BuiltSizeMB(); got != want {
		t.Errorf("BuiltSizeMB = %g, want %g", got, want)
	}
	second, err := NewIndex(tab, "commitdate")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.RegisterIndex(second)
	if err != nil {
		t.Fatal(err)
	}
	st2.MarkBuilt(2)
	want2 := second.PartitionSizeMB(tab.Partitions[2])
	// IndexNames order: commitdate's partition, then orderkey's two.
	if mb, parts := c.Footprint(); mb != want2+want || parts != 3 {
		t.Errorf("Footprint = %g MB, %d parts, want %g, 3", mb, parts, want2+want)
	}
}

func TestDrop(t *testing.T) {
	c, _, idx := catalogFixture(t)
	st := c.State(idx.Name())
	st.MarkBuilt(0)
	c.Drop(idx.Name())
	if c.Available(idx.Name()) || st.Built(0) {
		t.Error("dropped index still available")
	}
	c.Drop("missing") // a no-op
	st.MarkBuilt(1)
	if !st.Built(1) || st.BuiltCount() != 1 {
		t.Error("a dropped index cannot be built again")
	}
}

func TestApplyUpdateInvalidatesIndexes(t *testing.T) {
	c, _, idx := catalogFixture(t)
	st := c.State(idx.Name())
	st.MarkBuilt(0)
	st.MarkBuilt(1)

	n, err := c.ApplyUpdate("lineitem", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("ApplyUpdate deleted %d index partitions, want 1", n)
	}
	if st.Built(0) {
		t.Error("index partition 0 still built after update")
	}
	if !st.Built(1) {
		t.Error("index partition 1 lost by unrelated update")
	}
	if n, err := c.ApplyUpdate("lineitem", 0); err != nil || n != 0 {
		t.Errorf("second update of partition 0 = %d, %v, want 0, nil", n, err)
	}

	if _, err := c.ApplyUpdate("missing", 0); err == nil {
		t.Error("ApplyUpdate on unknown table accepted")
	}
	if _, err := c.ApplyUpdate("lineitem", 99); err == nil {
		t.Error("ApplyUpdate on unknown partition accepted")
	}
	if _, err := c.ApplyUpdate("lineitem", -1); err == nil {
		t.Error("ApplyUpdate on partition -1 accepted")
	}
}

func TestAvailableSet(t *testing.T) {
	c, _, idx := catalogFixture(t)
	if c.AvailableCount() != 0 || c.Available(idx.Name()) {
		t.Error("an index is available on a fresh catalog")
	}
	c.State(idx.Name()).MarkBuilt(0)
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
			if st.Built(p.ID) {
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
	st.MarkBuilt(0)
	st.MarkBuilt(2)
	st.MarkBuilt(2) // again: one partition, not two
	recount("MarkBuilt")
	if _, err := c.ApplyUpdate("lineitem", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyUpdate("lineitem", 1); err != nil { // never built
		t.Fatal(err)
	}
	recount("ApplyUpdate")
	st.MarkBuilt(1)
	c.Drop(idx.Name())
	recount("Drop")
}
