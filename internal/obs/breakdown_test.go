package obs

import (
	"strings"
	"testing"
	"time"
)

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add("exec", 90*time.Millisecond)
	b.Add("split", 10*time.Millisecond)
	if b.Total() != 100*time.Millisecond {
		t.Fatalf("total: %s", b.Total())
	}
	if f := b.Fraction("split"); f != 0.1 {
		t.Fatalf("fraction: %f", f)
	}
	comps := b.Components()
	if comps[0] != "exec" || comps[1] != "split" {
		t.Fatalf("order: %v", comps)
	}
	tbl := b.Table()
	for _, f := range []string{"exec", "split", "10.00%", "total"} {
		if !strings.Contains(tbl, f) {
			t.Fatalf("table missing %s:\n%s", f, tbl)
		}
	}
}

func TestBreakdownMerge(t *testing.T) {
	a := NewBreakdown()
	a.Add("x", time.Second)
	b := NewBreakdown()
	b.Add("x", time.Second)
	b.Add("y", 2*time.Second)
	a.Merge(b)
	if a.Get("x") != 2*time.Second || a.Get("y") != 2*time.Second {
		t.Fatalf("merge: x=%s y=%s", a.Get("x"), a.Get("y"))
	}
}

func TestBreakdownEmpty(t *testing.T) {
	b := NewBreakdown()
	if b.Fraction("anything") != 0 {
		t.Fatal("empty fraction must be 0")
	}
	if b.Total() != 0 {
		t.Fatal("empty total")
	}
}
