package workload

import (
	"reflect"
	"testing"
)

// TestCompileOpsDeterministic pins the replayability contract: the same
// (scenario, seed, cap) always compiles to the identical sequence, and
// a different seed reorders the reads.
func TestCompileOpsDeterministic(t *testing.T) {
	s := NewZipf(1)
	s.TotalPeriods = 3
	a := CompileOps(s, 7, 2000)
	b := CompileOps(s, 7, 2000)
	if len(a) == 0 {
		t.Fatal("compiled zero ops")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical inputs compiled to different sequences")
	}
	c := CompileOps(s, 8, 2000)
	if len(c) != len(a) {
		t.Fatalf("seed changed op count: %d vs %d", len(c), len(a))
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds compiled to the identical read order")
	}
}

// TestCompileOpsNamespaceInvariant asserts every Get/Delete targets an
// object a preceding Put created and no earlier Delete removed — on a
// churn scenario, which exercises both creations and lifetime deletes.
func TestCompileOpsNamespaceInvariant(t *testing.T) {
	s := NewChurn(3)
	s.TotalPeriods = 12
	ops := CompileOps(s, 3, 0)
	if len(ops) == 0 {
		t.Fatal("compiled zero ops")
	}
	live := make(map[string]bool)
	puts, gets, deletes := 0, 0, 0
	for i, op := range ops {
		switch op.Kind {
		case OpPut:
			live[op.Object] = true
			puts++
		case OpGet:
			if !live[op.Object] {
				t.Fatalf("op %d: Get %q before Put (or after Delete)", i, op.Object)
			}
			gets++
		case OpDelete:
			if !live[op.Object] {
				t.Fatalf("op %d: Delete %q before Put (or double delete)", i, op.Object)
			}
			delete(live, op.Object)
			deletes++
		}
	}
	if puts == 0 || gets == 0 || deletes == 0 {
		t.Fatalf("churn should compile all three kinds, got puts=%d gets=%d deletes=%d",
			puts, gets, deletes)
	}
}

// TestCompileOpsCap asserts maxOps truncates and <=0 means the default.
func TestCompileOpsCap(t *testing.T) {
	s := NewZipf(1)
	capped := CompileOps(s, 1, 50)
	if len(capped) != 50 {
		t.Fatalf("cap 50 compiled %d ops", len(capped))
	}
	full := CompileOps(s, 1, 0)
	if len(full) > DefaultMaxOps {
		t.Fatalf("default cap exceeded: %d", len(full))
	}
	if len(full) <= 50 {
		t.Fatalf("full zipf week should compile far more than 50 ops, got %d", len(full))
	}
}
