package metadata

import (
	"errors"
	"sort"
	"sync"
)

// Version is one MVCC version of a row, as in the paper's Fig. 10: the
// row key maps to one or more versions keyed by UUID, each carrying a
// timestamp used for freshest-wins conflict resolution. Columns hold the
// file metadata and striping metadata (Fig. 11) as opaque strings.
type Version struct {
	UUID      string
	Timestamp int64 // engines are NTP-synchronized; ties break on UUID
	Clock     VectorClock
	Columns   map[string]string
	Deleted   bool // tombstone
	// Decoded is the writer's parsed form of Columns, when it attached
	// one, so a reader need not parse them again. It is opaque here and
	// shared by every copy of the version — it lives and dies with the
	// stored version — so whoever reads it must treat it as immutable.
	Decoded any
}

// Clone returns a deep copy of the version; Decoded is carried by
// reference.
func (v Version) Clone() Version {
	out := v
	out.Clock = v.Clock.Clone()
	out.Columns = make(map[string]string, len(v.Columns))
	for k, c := range v.Columns {
		out.Columns[k] = c
	}
	return out
}

// Newer reports whether v wins conflict resolution against other
// (freshest timestamp, UUID as the deterministic tie-break).
func (v Version) Newer(other Version) bool {
	if v.Timestamp != other.Timestamp {
		return v.Timestamp > other.Timestamp
	}
	return v.UUID > other.UUID
}

// Store errors.
var (
	ErrRowNotFound = errors.New("metadata: row not found")
	ErrNodeDown    = errors.New("metadata: database node is down")
)

// Store is a single datacenter's database node. Rows hold every
// non-superseded version; concurrent versions coexist until resolved.
// It is safe for concurrent use by many engines.
type Store struct {
	node string

	mu   sync.RWMutex
	rows map[string][]Version
	down bool
	seq  uint64
}

// NewStore returns an empty node named node (e.g. "dc1").
func NewStore(node string) *Store {
	return &Store{node: node, rows: make(map[string][]Version)}
}

// Node returns the node identifier.
func (s *Store) Node() string { return s.node }

// SetAvailable injects or clears a node outage.
func (s *Store) SetAvailable(up bool) {
	s.mu.Lock()
	s.down = !up
	s.mu.Unlock()
}

// Available reports whether the node accepts requests.
func (s *Store) Available() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.down
}

// Put writes a new version of row. The version's clock is advanced with
// this node's counter (merged over the row's current heads so causally
// later writes dominate earlier ones seen here).
func (s *Store) Put(row string, v Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return ErrNodeDown
	}
	v = v.Clone()
	if v.Clock == nil {
		v.Clock = VectorClock{}
	}
	for _, head := range s.rows[row] {
		v.Clock.Merge(head.Clock)
	}
	s.seq++
	v.Clock.Tick(s.node)
	s.insertLocked(row, v)
	return nil
}

// insertLocked merges v into the row's version set, dropping any version
// v dominates and ignoring v if dominated.
func (s *Store) insertLocked(row string, v Version) {
	heads := s.rows[row][:0]
	for _, head := range s.rows[row] {
		switch head.Clock.Compare(v.Clock) {
		case After, Equal:
			// Existing version dominates the incoming one: keep the set.
			s.rows[row] = append(heads, s.rows[row][len(heads):]...)
			return
		case Before:
			// Incoming dominates: drop this head.
		case Concurrent:
			heads = append(heads, head)
		}
	}
	s.rows[row] = append(heads, v)
}

// merge applies a replicated version without ticking the local clock.
func (s *Store) merge(row string, v Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return ErrNodeDown
	}
	s.insertLocked(row, v.Clone())
	return nil
}

// Heads returns all current (mutually concurrent) versions of a row,
// tombstones included, newest first. A single head means no conflict.
func (s *Store) Heads(row string) ([]Version, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.down {
		return nil, ErrNodeDown
	}
	heads := s.rows[row]
	if len(heads) == 0 {
		return nil, ErrRowNotFound
	}
	out := make([]Version, len(heads))
	for i, h := range heads {
		out[i] = h.Clone()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Newer(out[j]) })
	return out, nil
}

// Get returns the winning version of a row, resolving any conflict by
// freshest timestamp, plus the deprecated versions the caller must
// garbage-collect (delete chunks at providers and drop statistics; the
// paper's Fig. 10 procedure). The losing versions are removed. A
// tombstone wins like any other version: the row reports ErrRowNotFound,
// and the losers — the only record left of the live versions the delete
// raced — are still returned.
func (s *Store) Get(row string) (Version, []Version, error) {
	heads, err := s.Heads(row)
	if err != nil {
		return Version{}, nil, err
	}
	winner, losers := heads[0], heads[1:]
	if len(losers) > 0 {
		// Collapse the row to the winner; its clock absorbs the losers' so
		// replication converges.
		s.mu.Lock()
		if !s.down {
			merged := winner.Clone()
			for _, l := range losers {
				merged.Clock.Merge(l.Clock)
			}
			merged.Clock.Tick(s.node)
			s.rows[row] = []Version{merged}
			winner = merged
		}
		s.mu.Unlock()
	}
	if winner.Deleted {
		return Version{}, losers, ErrRowNotFound
	}
	return winner, losers, nil
}

// Delete writes a tombstone version for the row.
func (s *Store) Delete(row string, uuid string, timestamp int64) error {
	return s.Put(row, Version{UUID: uuid, Timestamp: timestamp, Deleted: true})
}

// Rows returns all row keys with at least one live (non-tombstone)
// head, sorted.
func (s *Store) Rows() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.rows))
	for row, heads := range s.rows {
		live := false
		for _, h := range heads {
			if !h.Deleted {
				live = true
				break
			}
		}
		if live {
			out = append(out, row)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of rows (including tombstoned ones).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rows)
}

// dump snapshots every version of every row for anti-entropy exchange.
func (s *Store) dump() map[string][]Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]Version, len(s.rows))
	for row, heads := range s.rows {
		vs := make([]Version, len(heads))
		for i, h := range heads {
			vs[i] = h.Clone()
		}
		out[row] = vs
	}
	return out
}
