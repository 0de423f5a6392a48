package metadata

import (
	"errors"
	"maps"
	"slices"
	"sync"
)

// Version is one MVCC version of a row, as in the paper's Fig. 10: the
// row key maps to one or more versions keyed by UUID, each carrying a
// timestamp used for freshest-wins conflict resolution. Value holds the
// file metadata and striping metadata (Fig. 11), opaque to the store.
//
// A stored version is never written again. The store copies the version
// a caller puts, builds a new one when it collapses a conflict, and
// otherwise hands versions out, and takes replicated ones in, as they are:
// every holder shares the stored Clock, Columns and Value, and reads them
// only.
type Version struct {
	UUID      string
	Timestamp int64 // engines are NTP-synchronized; ties break on UUID
	Clock     VectorClock
	Columns   map[string]string // string columns, for writers that keep them
	Deleted   bool              // tombstone
	Value     any               // the writer's value
}

// Clone returns a deep copy of the version; Value is carried by
// reference.
func (v Version) Clone() Version {
	out := v
	out.Clock = v.Clock.Clone()
	out.Columns = maps.Clone(v.Columns)
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

// Put writes a new version of row and returns the row's heads as they
// stand after the write. The version stored is a copy of v, its clock
// advanced with this node's counter (merged over the row's current heads
// so causally later writes dominate earlier ones seen here).
func (s *Store) Put(row string, v Version) ([]Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, ErrNodeDown
	}
	v = v.Clone()
	if v.Clock == nil {
		v.Clock = VectorClock{}
	}
	for _, head := range s.rows[row] {
		v.Clock.Merge(head.Clock)
	}
	v.Clock.Tick(s.node)
	s.insertLocked(row, v)
	return slices.Clone(s.rows[row]), nil
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

// merge stores a replicated version as received, without ticking the
// local clock.
func (s *Store) merge(row string, v Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return ErrNodeDown
	}
	s.insertLocked(row, v)
	return nil
}

// newestFirst copies a row's heads, newest first; s.mu is held.
func newestFirst(heads []Version) ([]Version, error) {
	if len(heads) == 0 {
		return nil, ErrRowNotFound
	}
	out := slices.Clone(heads)
	slices.SortFunc(out, func(a, b Version) int {
		switch {
		case a.Newer(b):
			return -1
		case b.Newer(a):
			return 1
		}
		return 0
	})
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
	s.mu.RLock()
	heads, down := s.rows[row], s.down
	var winner Version
	if len(heads) == 1 {
		winner = heads[0] // insertLocked reuses the row's array: copy it under the lock
	}
	s.mu.RUnlock()
	var losers []Version
	switch {
	case down:
		return Version{}, nil, ErrNodeDown
	case len(heads) == 0:
		return Version{}, nil, ErrRowNotFound
	case len(heads) > 1:
		var err error
		if winner, losers, err = s.collapse(row); err != nil {
			return Version{}, nil, err
		}
	}
	if winner.Deleted {
		return Version{}, losers, ErrRowNotFound
	}
	return winner, losers, nil
}

// collapse resolves a conflicted row in one critical section: it reads
// the heads again, so a version stored since Get looked is resolved with
// them rather than overwritten, and replaces them with a new version of
// the winner whose clock absorbs the losers', so the row's next write
// here dominates them all at every peer too.
func (s *Store) collapse(row string) (Version, []Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return Version{}, nil, ErrNodeDown
	}
	heads, err := newestFirst(s.rows[row])
	if err != nil {
		return Version{}, nil, err
	}
	if len(heads) == 1 {
		return heads[0], nil, nil
	}
	merged := heads[0]
	merged.Clock = merged.Clock.Clone()
	for _, l := range heads[1:] {
		merged.Clock.Merge(l.Clock)
	}
	merged.Clock.Tick(s.node)
	s.rows[row] = []Version{merged}
	return merged, heads[1:], nil
}

// Scan returns the winning version of every row, resolved as Get resolves
// it, in no particular order; a row a tombstone wins is left out. It is
// read-only: a conflict is resolved for the caller, not collapsed.
func (s *Store) Scan() ([]Version, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.down {
		return nil, ErrNodeDown
	}
	out := make([]Version, 0, len(s.rows))
	for _, heads := range s.rows {
		winner := heads[0]
		for _, h := range heads[1:] {
			if h.Newer(winner) {
				winner = h
			}
		}
		if !winner.Deleted {
			out = append(out, winner)
		}
	}
	return out, nil
}

// Len returns the number of rows (including tombstoned ones).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rows)
}
