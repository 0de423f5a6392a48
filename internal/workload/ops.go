package workload

// This file maps scenarios onto executable operation sequences: the
// bridge between the simulator-facing Load(p) aggregates and a load
// generator that must issue one HTTP request per operation against a
// live gateway. CompileOps is pure — the same scenario and seed always
// compile to the identical sequence, which is what makes loadgen runs
// replayable and diffable.

// OpKind is the operation class of a compiled Op.
type OpKind uint8

const (
	// OpPut writes (creates or updates) an object.
	OpPut OpKind = iota
	// OpGet reads an object in full.
	OpGet
	// OpDelete removes an object.
	OpDelete
)

// String returns the wire-friendly lowercase name.
func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Op is one executable operation compiled from a scenario period.
type Op struct {
	// Period is the scenario period the op was compiled from.
	Period int
	// Kind is the operation class.
	Kind OpKind
	// Object is the scenario-scoped object name (the executor prefixes
	// its own container).
	Object string
	// Size is the object size in bytes (payload length for OpPut,
	// expected length for OpGet).
	Size int64
}

// DefaultMaxOps bounds CompileOps when the caller passes maxOps <= 0: a
// week-long scenario can expand to millions of reads, and the load
// generator almost never wants more than this in one pass.
const DefaultMaxOps = 100_000

// CompileOps flattens a scenario into a deterministic operation
// sequence. Per period it emits writes first (in Load order), then the
// period's reads in a seeded shuffle (so concurrent workers don't hammer
// one object back-to-back), then deletes. A live-object set guarantees
// the namespace invariant the load generator relies on: every OpGet and
// OpDelete targets an object a preceding OpPut in the same sequence
// created and no later OpDelete has removed. Reads or deletes of
// objects the scenario never wrote (possible under Shift
// compositions) are silently dropped.
//
// The result is capped at maxOps (DefaultMaxOps when <= 0). Identical
// (scenario, seed, maxOps) inputs always yield the identical sequence.
func CompileOps(s Scenario, seed uint64, maxOps int) []Op {
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	live := make(map[string]bool)
	var ops []Op
	for p := 0; p < s.Periods() && len(ops) < maxOps; p++ {
		loads := s.Load(p)

		var puts, gets, deletes []Op
		for _, l := range loads {
			if l.Created || l.Writes > 0 {
				puts = append(puts, Op{Period: p, Kind: OpPut, Object: l.Object, Size: l.Size})
				live[l.Object] = true
			}
		}
		for _, l := range loads {
			if !live[l.Object] {
				continue
			}
			for r := int64(0); r < l.Reads; r++ {
				gets = append(gets, Op{Period: p, Kind: OpGet, Object: l.Object, Size: l.Size})
			}
		}
		// Seeded Fisher-Yates over the period's reads. Only reads are
		// shuffled: write/delete order within a period is part of the
		// namespace invariant.
		for i := len(gets) - 1; i > 0; i-- {
			j := int(mix64(seed^mix64(uint64(p)<<24|uint64(i))) % uint64(i+1))
			gets[i], gets[j] = gets[j], gets[i]
		}
		for _, l := range loads {
			if l.Deleted && live[l.Object] {
				deletes = append(deletes, Op{Period: p, Kind: OpDelete, Object: l.Object, Size: l.Size})
				delete(live, l.Object)
			}
		}

		ops = append(ops, puts...)
		ops = append(ops, gets...)
		ops = append(ops, deletes...)
	}
	if len(ops) > maxOps {
		ops = ops[:maxOps]
	}
	return ops
}
