package queue

import (
	"fmt"
	"sync"
	"testing"
)

func newLog(t *testing.T, topic string, parts int) *Log {
	t.Helper()
	l := NewLog()
	if err := l.CreateTopic(topic, parts); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestProduceFetchRoundTrip(t *testing.T) {
	l := newLog(t, "in", 2)
	p, off, err := l.Produce("in", "k1", "hello")
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, err := l.Fetch("in", p, off)
	if err != nil || !ok {
		t.Fatalf("fetch: %v %v", ok, err)
	}
	if rec.Payload.(string) != "hello" || rec.Key != "k1" {
		t.Fatalf("record: %+v", rec)
	}
}

func TestKeyPartitioningIsStable(t *testing.T) {
	l := newLog(t, "in", 4)
	p1, _, _ := l.Produce("in", "same-key", 1)
	p2, _, _ := l.Produce("in", "same-key", 2)
	if p1 != p2 {
		t.Fatalf("same key landed on %d and %d", p1, p2)
	}
}

func TestOffsetsAreDense(t *testing.T) {
	l := newLog(t, "in", 1)
	for i := 0; i < 5; i++ {
		_, off, err := l.Produce("in", "k", i)
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Fatalf("offset %d, want %d", off, i)
		}
	}
	end, _ := l.End("in", 0)
	if end != 5 {
		t.Fatalf("end: %d", end)
	}
}

func TestReplayFromOffset(t *testing.T) {
	l := newLog(t, "in", 1)
	for i := 0; i < 10; i++ {
		if _, _, err := l.Produce("in", "k", i); err != nil {
			t.Fatal(err)
		}
	}
	// Replay the suffix starting at 6.
	var replayed []int
	for off := int64(6); ; off++ {
		rec, ok, err := l.Fetch("in", 0, off)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		replayed = append(replayed, rec.Payload.(int))
	}
	if len(replayed) != 4 || replayed[0] != 6 || replayed[3] != 9 {
		t.Fatalf("replayed: %v", replayed)
	}
}

func TestErrors(t *testing.T) {
	l := newLog(t, "in", 1)
	if err := l.CreateTopic("in", 1); err == nil {
		t.Fatal("duplicate topic must fail")
	}
	if err := l.CreateTopic("bad", 0); err == nil {
		t.Fatal("zero partitions must fail")
	}
	if _, _, err := l.Produce("nope", "k", 1); err == nil {
		t.Fatal("unknown topic must fail")
	}
	if _, _, err := l.Fetch("in", 9, 0); err == nil {
		t.Fatal("bad partition must fail")
	}
	if _, err := l.End("nope", 0); err == nil {
		t.Fatal("unknown topic must fail")
	}
	if _, err := l.Topic("nope"); err == nil {
		t.Fatal("unknown topic must fail")
	}
	if _, err := l.PartitionCount("nope"); err == nil {
		t.Fatal("unknown topic must fail")
	}
}

func TestFetchPastEnd(t *testing.T) {
	l := newLog(t, "in", 1)
	_, ok, err := l.Fetch("in", 0, 0)
	if err != nil || ok {
		t.Fatalf("empty fetch: ok=%v err=%v", ok, err)
	}
}

func TestConcurrentProducers(t *testing.T) {
	l := newLog(t, "in", 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, _, err := l.Produce("in", fmt.Sprintf("k%d-%d", w, i), i); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for p := 0; p < 4; p++ {
		end, err := l.End("in", p)
		if err != nil {
			t.Fatal(err)
		}
		total += end
	}
	if total != 800 {
		t.Fatalf("records: %d", total)
	}
}

func TestPartitionForDistribution(t *testing.T) {
	l := newLog(t, "in", 4)
	topic, _ := l.Topic("in")
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[topic.PartitionFor(fmt.Sprintf("key-%d", i))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("keys hash to only %d partitions", len(seen))
	}
}
