package stats

import (
	"sort"
	"sync"
)

// EventKind classifies an access event.
type EventKind int

// Event kinds.
const (
	EventRead EventKind = iota
	EventWrite
	EventDelete
)

// Event is one client request, applied by the engine that served it.
// Bytes is the transferred payload; StorageBytes the logical object size
// after the operation.
type Event struct {
	Object       string
	Class        string
	Kind         EventKind
	Bytes        int64
	StorageBytes int64
	Period       int64
}

// DB is the statistics database: per-object access histories, per-class
// aggregates, and the accessed-object index the periodic optimizer reads
// ("the set A of object keys that have been accessed or modified after
// the last optimization procedure", §III-A3). It is safe for concurrent
// use by many engines.
type DB struct {
	periodHours float64

	mu      sync.RWMutex
	objects map[string]*record

	classes *ClassStats
}

// record is what the database keeps of one object.
type record struct {
	hist     *History
	class    string // "" until an event names it
	accessed int64  // last access period
	created  int64  // creation period
}

// NewDB returns an empty statistics database. periodHours is the wall
// duration of one sampling period (1.0 in the paper's default).
func NewDB(periodHours float64) *DB {
	if periodHours <= 0 {
		periodHours = 1
	}
	return &DB{
		periodHours: periodHours,
		objects:     make(map[string]*record),
		classes:     NewClassStats(),
	}
}

// PeriodHours returns the sampling-period duration in hours.
func (db *DB) PeriodHours() float64 { return db.periodHours }

// Apply folds one event into the database, the whole event under one
// lock: concurrent events for an object serialize, and a reader never
// sees a history without its class or index entries. A delete is the
// object's last event: once its lifetime is folded into the class
// distribution the object is forgotten, so deleted keys neither
// accumulate nor show up in AccessedSince; a key created again later
// starts a fresh history with its write event. A delete of an object the
// database does not know has nothing to fold or forget and is dropped.
func (db *DB) Apply(ev Event) {
	s := Sample{Period: ev.Period, StorageBytes: ev.StorageBytes}
	switch ev.Kind {
	case EventRead:
		s.Reads = 1
		s.BytesOut = ev.Bytes
	case EventWrite:
		s.Writes = 1
		s.BytesIn = ev.Bytes
	case EventDelete:
		s.Deletes = 1
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.objects[ev.Object]
	if !ok {
		if ev.Kind == EventDelete {
			return
		}
		rec = &record{hist: NewHistory(0), created: ev.Period}
		db.objects[ev.Object] = rec
	}
	if ev.Class != "" {
		rec.class = ev.Class
	}
	rec.accessed = ev.Period
	rec.hist.Record(s)
	if rec.class != "" {
		db.classes.Class(rec.class).ObserveSample(s)
		if ev.Kind == EventDelete {
			lifetime := float64(ev.Period-rec.created) * db.periodHours
			db.classes.Class(rec.class).ObserveDeletion(lifetime)
		}
	}
	if ev.Kind == EventDelete {
		delete(db.objects, ev.Object)
	}
}

// History returns the access history of an object, or nil if unknown.
func (db *DB) History(object string) *History {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if rec := db.objects[object]; rec != nil {
		return rec.hist
	}
	return nil
}

// Classes exposes the per-class aggregates.
func (db *DB) Classes() *ClassStats { return db.classes }

// AccessedSince returns the sorted keys of objects accessed or modified
// at or after the given period — the optimizer's working set A.
func (db *DB) AccessedSince(period int64) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for obj, rec := range db.objects {
		if rec.accessed >= period {
			out = append(out, obj)
		}
	}
	sort.Strings(out)
	return out
}

// CreatedAt returns the creation period of an object.
func (db *DB) CreatedAt(object string) (int64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if rec := db.objects[object]; rec != nil {
		return rec.created, true
	}
	return 0, false
}

// AgeHours returns the object's age at the given period, in hours.
func (db *DB) AgeHours(object string, now int64) float64 {
	created, ok := db.CreatedAt(object)
	if !ok || now < created {
		return 0
	}
	return float64(now-created) * db.periodHours
}
