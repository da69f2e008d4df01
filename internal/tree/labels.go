package tree

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// LabelTable is an append-only table of labels addressed by int32 id: a
// tree names each node's label by its id in the tree's table. Trees
// that share a table built by Intern share ids too, one id per distinct
// label, so the cost models and lower bounds compare labels as ints.
// Such a table belongs to an engine or a corpus, which relabels every
// tree it stores or prepares onto it (Tree.Relabel). A tree that is
// parsed or indexed gets a table of its own instead, one id per node in
// postorder, which costs no map and no deduplication.
//
// A LabelTable is safe for concurrent use: Intern appends and ID looks a
// label up under a mutex, and Label reads an atomically published slice
// without a lock.
// Ids are never reassigned, so an id once handed out names the same
// label for the table's whole life.
type LabelTable struct {
	mu     sync.Mutex
	ids    map[string]int32 // built on the first Intern
	labels atomic.Pointer[[]string]
}

// NewLabelTable returns an empty table.
func NewLabelTable() *LabelTable { return tableOf(nil) }

// tableOf returns a table whose id i is labels[i], keeping labels.
// Duplicates are allowed; the table builds no map until it is interned
// into.
func tableOf(labels []string) *LabelTable {
	tab := &LabelTable{}
	tab.labels.Store(&labels)
	return tab
}

// Label returns the label with id id.
func (tab *LabelTable) Label(id int32) string { return (*tab.labels.Load())[id] }

// Len returns the number of ids assigned so far.
func (tab *LabelTable) Len() int { return len(*tab.labels.Load()) }

// Snapshot returns the labels by id as of now. Later Interns extend the
// table, never change it, so the snapshot stays valid for every id it
// covers. The slice must not be modified; its capacity is clipped to its
// length, so an append to it copies instead of writing into the table.
func (tab *LabelTable) Snapshot() []string {
	s := *tab.labels.Load()
	return s[:len(s):len(s)]
}

// Intern returns the id of every label of ls, assigning the next free
// ids to labels the table has not seen, and publishes the grown table
// once.
func (tab *LabelTable) Intern(ls ...string) []int32 {
	return tab.intern(len(ls), func(i int) string { return ls[i] })
}

// ID returns the id of label l and whether tab holds it, assigning none.
func (tab *LabelTable) ID(l string) (int32, bool) {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	tab.mapLocked()
	id, ok := tab.ids[l]
	return id, ok
}

// mapLocked builds the label-to-id map on first use; tab.mu is held.
func (tab *LabelTable) mapLocked() {
	if tab.ids != nil {
		return
	}
	cur := *tab.labels.Load()
	tab.ids = make(map[string]int32, len(cur))
	for i := len(cur) - 1; i >= 0; i-- {
		tab.ids[cur[i]] = int32(i) // the first id of a repeated label wins
	}
}

// intern is Intern over the n labels label(0), …, label(n−1).
func (tab *LabelTable) intern(n int, label func(i int) string) []int32 {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	tab.mapLocked()
	cur := *tab.labels.Load() // unclipped, so that growing it amortizes
	out := make([]int32, n)
	grown := cur
	for i := range out {
		l := label(i)
		id, ok := tab.ids[l]
		if !ok {
			id = int32(len(grown))
			tab.ids[l] = id
			grown = append(grown, l)
		}
		out[i] = id
	}
	if len(grown) != len(cur) {
		// Readers hold slices no longer than cur, so the append wrote no
		// element any of them can see.
		tab.labels.Store(&grown)
	}
	return out
}

// FromIDs builds a tree on table tab from the label id of every node and
// the child counts, both in postorder, as FromPostorder does from
// labels. The tree keeps ids as its own, so the caller must not modify
// them afterwards. It returns an error on an id tab does not hold and on
// everything FromPostorder rejects.
func FromIDs(tab *LabelTable, ids []int32, counts []int) (*Tree, error) {
	if err := checkNodeCount(len(ids)); err != nil {
		return nil, err
	}
	if len(counts) != len(ids) {
		return nil, fmt.Errorf("tree: %d label ids but %d child counts", len(ids), len(counts))
	}
	n := int32(tab.Len())
	for v, id := range ids {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("tree: node %d has label id %d, table holds %d labels", v, id, n)
		}
	}
	return build(tab, ids, counts)
}

// Relabel returns t on table tab: t itself when it is on tab already,
// otherwise a tree that shares t's shape with its labels interned into
// tab under one lock.
func (t *Tree) Relabel(tab *LabelTable) *Tree {
	if t.table == tab {
		return t
	}
	src := t.table.Snapshot()
	u := *t
	u.table, u.ids = tab, tab.intern(len(t.ids), func(v int) string { return src[t.ids[v]] })
	return &u
}

// IDs returns the label id of every node in postorder. The slice must
// not be modified.
func (t *Tree) IDs() []int32 { return t.ids }

// LabelTable returns the table t's label ids refer to.
func (t *Tree) LabelTable() *LabelTable { return t.table }
