package obs

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentiles(t *testing.T) {
	s := &Histogram{}
	for i := 1; i <= 100; i++ {
		s.Observe(time.Duration(i) * time.Millisecond)
	}
	cases := map[float64]time.Duration{
		50:  50 * time.Millisecond,
		99:  99 * time.Millisecond,
		100: 100 * time.Millisecond,
		1:   1 * time.Millisecond,
	}
	for p, want := range cases {
		if got := s.Percentile(p); got != want {
			t.Errorf("p%.0f: got %s want %s", p, got, want)
		}
	}
}

// TestEmptySeries: an empty histogram reads all zero.
func TestEmptySeries(t *testing.T) {
	s := &Histogram{}
	if s.Percentile(99) != 0 || s.Snapshot() != (HistSnapshot{}) {
		t.Fatal("empty histogram must be all zero")
	}
}

func TestMeanMinMax(t *testing.T) {
	s := &Histogram{}
	for _, d := range []time.Duration{30, 10, 20} {
		s.Observe(d * time.Millisecond)
	}
	snap := s.Snapshot()
	if snap.Count != 3 || s.sum != 60*time.Millisecond || snap.Mean != 20*time.Millisecond {
		t.Fatalf("count/sum/mean: %d/%s/%s", snap.Count, s.sum, snap.Mean)
	}
	if lo := s.Percentile(0); lo != 10*time.Millisecond || snap.Max != 30*time.Millisecond {
		t.Fatalf("min/max: %s/%s", lo, snap.Max)
	}
}

func TestAddAfterQueryResorts(t *testing.T) {
	s := &Histogram{}
	s.Observe(10 * time.Millisecond)
	_ = s.Percentile(50)
	s.Observe(1 * time.Millisecond)
	if s.Percentile(0) != 1*time.Millisecond {
		t.Fatal("histogram must re-sort after new samples")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []uint16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := &Histogram{}
		for _, v := range raw {
			s.Observe(time.Duration(v) * time.Microsecond)
		}
		pa := float64(a % 101)
		pb := float64(b % 101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	prop := func(raw []uint16, p uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := &Histogram{}
		for _, v := range raw {
			s.Observe(time.Duration(v) * time.Microsecond)
		}
		got, snap := s.Percentile(float64(p%101)), s.Snapshot()
		lo := time.Duration(slices.Min(raw)) * time.Microsecond
		return got >= lo && got <= snap.Max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryContainsFields(t *testing.T) {
	s := &Histogram{}
	s.Observe(time.Millisecond)
	sum := s.Snapshot().String()
	for _, f := range []string{"n=1", "mean=", "p50=", "p99=", "max="} {
		if !strings.Contains(sum, f) {
			t.Fatalf("summary %q missing %s", sum, f)
		}
	}
}
