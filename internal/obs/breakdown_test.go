package obs

import (
	"strings"
	"testing"
	"time"
)

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add(FunctionExecution, 90*time.Millisecond)
	b.Add(SplittingInstrumentation, 10*time.Millisecond)
	if b.Total() != 100*time.Millisecond {
		t.Fatalf("total: %s", b.Total())
	}
	if f := b.Fraction(SplittingInstrumentation); f != 0.1 {
		t.Fatalf("fraction: %f", f)
	}
	comps := b.Components()
	if len(comps) != 2 || comps[0] != FunctionExecution || comps[1] != SplittingInstrumentation {
		t.Fatalf("order: %v", comps)
	}
	tbl := b.Table()
	for _, f := range []string{"function_execution", "splitting_instrumentation", "10.00%", "total"} {
		if !strings.Contains(tbl, f) {
			t.Fatalf("table missing %s:\n%s", f, tbl)
		}
	}
}

func TestBreakdownMerge(t *testing.T) {
	a := NewBreakdown()
	a.Add(TxnCommit, time.Second)
	b := NewBreakdown()
	b.Add(TxnCommit, time.Second)
	b.Add(TxnValidation, 2*time.Second)
	a.Merge(b)
	if a.Get(TxnCommit) != 2*time.Second || a.Get(TxnValidation) != 2*time.Second {
		t.Fatalf("merge: commit=%s validation=%s", a.Get(TxnCommit), a.Get(TxnValidation))
	}
	if comps := a.Components(); len(comps) != 2 {
		t.Fatalf("merge listed %v, want the two charged components", comps)
	}
}

func TestBreakdownEmpty(t *testing.T) {
	b := NewBreakdown()
	if b.Fraction(FunctionExecution) != 0 {
		t.Fatal("empty fraction must be 0")
	}
	if b.Total() != 0 {
		t.Fatal("empty total")
	}
}
