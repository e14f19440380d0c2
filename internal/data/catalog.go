package data

import (
	"fmt"
	"sort"
)

// PartState is the build state of one index partition.
type PartState struct {
	// Built reports whether the index partition currently exists.
	Built bool
	// BuiltAt is the creation time point in seconds (the T of
	// idx(t, C, T)); meaningful only when Built.
	BuiltAt float64
	// Version is the table-partition version the index was built against.
	Version int
}

// BuildState tracks which partitions of an index have been built and when.
// Indexes are built incrementally: not all partitions need to exist for the
// index to be used (§3).
type BuildState struct {
	Index *Index
	name  string // Index.Name(), spelled once
	// parts holds the built partitions and nothing else: MarkBuilt is its
	// only writer and stores Built entries, Invalidate deletes, Reset
	// empties. BuiltCount is therefore its length.
	parts map[int]*PartState
}

// NewBuildState returns an all-unbuilt state for idx.
func NewBuildState(idx *Index) *BuildState {
	return &BuildState{Index: idx, name: idx.Name(), parts: make(map[int]*PartState)}
}

// Name returns the index's canonical name, the catalog's key for this state:
// one string for the life of the state, where Index.Name() builds a new one
// per call.
func (b *BuildState) Name() string { return b.name }

// Part returns the state of index partition id (zero value if untouched).
func (b *BuildState) Part(id int) PartState {
	if s, ok := b.parts[id]; ok {
		return *s
	}
	return PartState{}
}

// MarkBuilt records that the index partition over table partition id was
// completed at time t against the partition's current version. It is the
// only writer of parts.
func (b *BuildState) MarkBuilt(id int, t float64) error {
	if id < 0 || id >= len(b.Index.Table.Partitions) {
		return fmt.Errorf("data: index %s: no table partition %d", b.Index.Name(), id)
	}
	b.parts[id] = &PartState{
		Built:   true,
		BuiltAt: t,
		Version: b.Index.Table.Partitions[id].Version,
	}
	return nil
}

// Invalidate marks the index partition over table partition id as not built
// (used when the table partition is updated, §3: "Indexes built on table
// partitions that are updated are deleted and marked as not built").
func (b *BuildState) Invalidate(id int) {
	delete(b.parts, id)
}

// Reset clears all build state (the index is dropped).
func (b *BuildState) Reset() {
	b.parts = make(map[int]*PartState)
}

// BuiltCount returns how many index partitions currently exist.
func (b *BuildState) BuiltCount() int { return len(b.parts) }

// BuiltFraction returns the fraction of table partitions whose index
// partition exists, in [0, 1].
func (b *BuildState) BuiltFraction() float64 {
	total := len(b.Index.Table.Partitions)
	if total == 0 {
		return 0
	}
	return float64(b.BuiltCount()) / float64(total)
}

// BuiltSizeMB returns the storage footprint of the built partitions only,
// summed in ascending partition id so that it is the same float every time.
func (b *BuildState) BuiltSizeMB() float64 {
	var sum float64
	for id, p := range b.Index.Table.Partitions {
		if _, built := b.parts[id]; built {
			sum += b.Index.PartitionSizeMB(p)
		}
	}
	return sum
}

// BuiltPaths returns the storage paths of the built index partitions,
// sorted.
func (b *BuildState) BuiltPaths() []string {
	var paths []string
	for id := range b.parts {
		paths = append(paths, b.Index.PartitionPath(id))
	}
	sort.Strings(paths)
	return paths
}

// MissingPartitions returns the IDs of table partitions whose index
// partition does not currently exist, in ascending order.
func (b *BuildState) MissingPartitions() []int {
	var ids []int
	for _, p := range b.Index.Table.Partitions {
		if _, built := b.parts[p.ID]; !built {
			ids = append(ids, p.ID)
		}
	}
	return ids
}

// Catalog holds the tables and the evolving index sets of the service: the
// potential indexes Pi, the available (at least partially built) indexes
// I(t), and the full history of everything ever registered.
type Catalog struct {
	tables map[string]*Table
	states map[string]*BuildState
	// names is the sorted key set of states, built by the first
	// IndexNames after a RegisterIndex.
	names []string
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		states: make(map[string]*BuildState),
	}
}

// AddTable registers t. It returns an error on duplicate names.
func (c *Catalog) AddTable(t *Table) error {
	if _, ok := c.tables[t.Name]; ok {
		return fmt.Errorf("data: duplicate table %q", t.Name)
	}
	c.tables[t.Name] = t
	return nil
}

// RegisterIndex adds idx to the potential set. Registering the same name
// twice is an error.
func (c *Catalog) RegisterIndex(idx *Index) (*BuildState, error) {
	st := NewBuildState(idx)
	name := st.name
	if _, ok := c.states[name]; ok {
		return nil, fmt.Errorf("data: duplicate index %q", name)
	}
	if c.tables[idx.Table.Name] == nil {
		return nil, fmt.Errorf("data: index %q references unregistered table %q", name, idx.Table.Name)
	}
	c.states[name] = st
	c.names = nil
	return st, nil
}

// State returns the build state of the named index, or nil.
func (c *Catalog) State(name string) *BuildState { return c.states[name] }

// IndexNames returns all registered index names, sorted. The slice is the
// catalog's own, kept until the next RegisterIndex — a submit asks for it
// three times over a set that never changes — so callers must not modify it.
func (c *Catalog) IndexNames() []string {
	if c.names == nil {
		c.names = make([]string, 0, len(c.states))
		for n := range c.states {
			c.names = append(c.names, n)
		}
		sort.Strings(c.names)
	}
	return c.names
}

// Available reports whether the named index has at least one built
// partition (usable incrementally per §3).
func (c *Catalog) Available(name string) bool {
	st := c.states[name]
	return st != nil && st.BuiltCount() > 0
}

// AvailableCount returns |I(t)|, the number of currently usable indexes.
func (c *Catalog) AvailableCount() int {
	n := 0
	for _, st := range c.states {
		if st.BuiltCount() > 0 {
			n++
		}
	}
	return n
}

// Drop deletes all built partitions of the named index and returns their
// storage paths so the caller can free them from the storage service.
func (c *Catalog) Drop(name string) []string {
	st := c.states[name]
	if st == nil {
		return nil
	}
	paths := st.BuiltPaths()
	st.Reset()
	return paths
}

// BuiltSizeMB returns the total storage footprint of all built index
// partitions across the catalog, summed in IndexNames order.
func (c *Catalog) BuiltSizeMB() float64 {
	var sum float64
	for _, name := range c.IndexNames() {
		sum += c.states[name].BuiltSizeMB()
	}
	return sum
}

// ApplyUpdate performs a batch update on partition pid of the named table:
// it bumps the partition version and invalidates every index partition
// built on it, returning the storage paths of the invalidated index
// partitions.
func (c *Catalog) ApplyUpdate(table string, pid int) ([]string, error) {
	t := c.tables[table]
	if t == nil {
		return nil, fmt.Errorf("data: unknown table %q", table)
	}
	if _, err := t.UpdatePartition(pid); err != nil {
		return nil, err
	}
	var freed []string
	for _, st := range c.states {
		if st.Index.Table != t {
			continue
		}
		if _, built := st.parts[pid]; built {
			freed = append(freed, st.Index.PartitionPath(pid))
			st.Invalidate(pid)
		}
	}
	sort.Strings(freed)
	return freed, nil
}
