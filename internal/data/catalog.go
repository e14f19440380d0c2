package data

import (
	"fmt"
	"sort"
)

// BuildState is the set of built partitions of one index. Indexes are
// built incrementally: not all partitions need to exist for the index to be
// used (§3).
type BuildState struct {
	Index *Index
	name  string // Index.Name(), spelled once
	// parts holds the ids of the built partitions: MarkBuilt adds, the
	// catalog's ApplyUpdate deletes one and Drop empties it. BuiltCount is
	// therefore its length.
	parts map[int]struct{}
}

// NewBuildState returns an all-unbuilt state for idx.
func NewBuildState(idx *Index) *BuildState {
	return &BuildState{Index: idx, name: idx.Name(), parts: make(map[int]struct{})}
}

// Name returns the index's canonical name, the catalog's key for this state:
// one string for the life of the state, where Index.Name() builds a new one
// per call.
func (b *BuildState) Name() string { return b.name }

// Built reports whether the index partition over table partition id exists.
func (b *BuildState) Built(id int) bool {
	_, ok := b.parts[id]
	return ok
}

// MarkBuilt records that the index partition over table partition id exists.
func (b *BuildState) MarkBuilt(id int) error {
	if id < 0 || id >= len(b.Index.Table.Partitions) {
		return fmt.Errorf("data: index %s: no table partition %d", b.name, id)
	}
	b.parts[id] = struct{}{}
	return nil
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
		if b.Built(id) {
			sum += b.Index.PartitionSizeMB(p)
		}
	}
	return sum
}

// MissingPartitions returns the IDs of table partitions whose index
// partition does not currently exist, in ascending order.
func (b *BuildState) MissingPartitions() []int {
	var ids []int
	for _, p := range b.Index.Table.Partitions {
		if !b.Built(p.ID) {
			ids = append(ids, p.ID)
		}
	}
	return ids
}

// Catalog holds the tables and the evolving index sets of the service: the
// potential indexes Pi, the available (at least partially built) indexes
// I(t), and the full history of everything ever registered. It is the one
// record of which index partitions are built: the storage service bills
// its Footprint and keeps no list of its own.
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

// Drop deletes all built partitions of the named index (a no-op for an
// unknown name).
func (c *Catalog) Drop(name string) {
	if st := c.states[name]; st != nil {
		clear(st.parts)
	}
}

// Footprint returns the storage footprint of all built index partitions
// across the catalog and how many there are. The sum runs in IndexNames
// order and, within an index, in ascending partition id: float addition is
// not associative, and the storage cost accrued at this footprint must be
// bit-identical across repeated runs.
func (c *Catalog) Footprint() (mb float64, parts int) {
	for _, name := range c.IndexNames() {
		st := c.states[name]
		mb += st.BuiltSizeMB()
		parts += st.BuiltCount()
	}
	return mb, parts
}

// ApplyUpdate performs a batch update on partition pid of the named table
// and deletes every index partition built on it (§3: "Indexes built on
// table partitions that are updated are deleted and marked as not built"),
// returning how many it deleted.
func (c *Catalog) ApplyUpdate(table string, pid int) (int, error) {
	t := c.tables[table]
	if t == nil {
		return 0, fmt.Errorf("data: unknown table %q", table)
	}
	if pid < 0 || pid >= len(t.Partitions) {
		return 0, fmt.Errorf("data: table %s has no partition %d", t.Name, pid)
	}
	n := 0
	for _, st := range c.states {
		if st.Index.Table == t && st.Built(pid) {
			delete(st.parts, pid)
			n++
		}
	}
	return n, nil
}
