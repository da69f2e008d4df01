package index

import "fmt"

// Snapshot is the serializable state of an inverted index: the key table
// (interned labels or serialized grams) and one entry per live tree. The
// posting lists themselves are NOT part of a snapshot — they are exactly
// the inversion of the per-tree profiles, so Restore replays the
// profiles and rebuilds the lists with plain appends: no string hashing,
// no gram extraction, no sorting. That replay is what makes loading a
// persisted index O(bytes) instead of O(re-index).
type Snapshot struct {
	Keys    []string
	Entries []SnapshotEntry
	// NextID is the id the auto-assigning Add would hand out next, so a
	// restored index keeps allocating above every id ever used (a reused
	// id would alias a deleted tree's).
	NextID int
}

// SnapshotEntry is one live tree of a Snapshot.
type SnapshotEntry struct {
	ID   int
	Size int
	Prof []KeyCount
}

// KeyCount is one profile entry: an index into Snapshot.Keys and the
// key's multiplicity in the tree.
type KeyCount struct {
	Key   int32
	Count int32
}

// Snapshot captures the index's live state for serialization. Entries
// are ordered by id. Tombstones are not captured: restoring a snapshot
// yields a compacted index.
func (ix *Histogram) Snapshot() *Snapshot {
	return ix.iv.snapshot(internedKeys(ix.ids))
}

// Snapshot captures the index's live state for serialization; see
// Histogram.Snapshot.
func (ix *PQGram) Snapshot() *Snapshot {
	return ix.iv.snapshot(internedKeys(ix.ids))
}

// RestoreHistogram rebuilds a histogram index from a snapshot. It
// validates the snapshot (distinct keys, in-range profile references,
// positive counts, unique ids) and returns an error — never panics — on
// inconsistent input, so codecs can feed it untrusted data.
func RestoreHistogram(s *Snapshot) (*Histogram, error) {
	ix := NewHistogram()
	if err := restore(s, ix.ids, &ix.iv); err != nil {
		return nil, err
	}
	return ix, nil
}

// RestorePQGram rebuilds a (1, q)-gram index from a snapshot, with the
// same validation contract as RestoreHistogram. The caller supplies the
// base length q; it is not part of the snapshot.
func RestorePQGram(q int, s *Snapshot) (*PQGram, error) {
	if q < 1 {
		return nil, fmt.Errorf("index: pq-gram base length must be positive, got %d", q)
	}
	ix := NewPQGram(q)
	if err := restore(s, ix.ids, &ix.iv); err != nil {
		return nil, err
	}
	return ix, nil
}

func internedKeys(ids map[string]int32) []string {
	keys := make([]string, len(ids))
	for k, id := range ids {
		keys[id] = k
	}
	return keys
}

func (iv *inverted) snapshot(keys []string) *Snapshot {
	s := &Snapshot{Keys: keys, NextID: len(iv.trees)}
	for id := range iv.trees {
		m := &iv.trees[id]
		if !m.alive {
			continue
		}
		prof := make([]KeyCount, len(m.prof))
		for i, kc := range m.prof {
			prof[i] = KeyCount{Key: kc.id, Count: kc.count}
		}
		s.Entries = append(s.Entries, SnapshotEntry{ID: id, Size: int(m.size), Prof: prof})
	}
	return s
}

func restore(s *Snapshot, ids map[string]int32, iv *inverted) error {
	for i, k := range s.Keys {
		if prev, dup := ids[k]; dup {
			return fmt.Errorf("index: snapshot keys %d and %d are both %q", prev, i, k)
		}
		ids[k] = int32(i)
	}
	if s.NextID < 0 {
		return fmt.Errorf("index: snapshot next id %d is negative", s.NextID)
	}
	seen := make(map[int]bool, len(s.Entries))
	for _, e := range s.Entries {
		if e.ID < 0 || e.ID >= s.NextID {
			return fmt.Errorf("index: snapshot entry id %d outside [0, %d)", e.ID, s.NextID)
		}
		if seen[e.ID] {
			return fmt.Errorf("index: snapshot holds two entries for id %d", e.ID)
		}
		seen[e.ID] = true
		if e.Size < 1 {
			return fmt.Errorf("index: snapshot entry %d has size %d", e.ID, e.Size)
		}
		prof := make([]keyCount, len(e.Prof))
		last := int32(-1)
		for i, kc := range e.Prof {
			if kc.Key < 0 || int(kc.Key) >= len(s.Keys) {
				return fmt.Errorf("index: entry %d references key %d, snapshot holds %d keys", e.ID, kc.Key, len(s.Keys))
			}
			if kc.Key <= last {
				return fmt.Errorf("index: entry %d profile not strictly key-ascending", e.ID)
			}
			if kc.Count < 1 {
				return fmt.Errorf("index: entry %d key %d has count %d", e.ID, kc.Key, kc.Count)
			}
			last = kc.Key
			prof[i] = keyCount{id: kc.Key, count: kc.Count}
		}
		iv.put(e.ID, e.Size, prof)
	}
	// Reserve the tail so Add never reuses an id the snapshot's writer
	// had already burned (deleted trees leave gaps above the last entry).
	for len(iv.trees) < s.NextID {
		iv.trees = append(iv.trees, treeMeta{})
	}
	return nil
}
