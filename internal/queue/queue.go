// Package queue implements the replayable partitioned log that stands in
// for Apache Kafka: topics are split into partitions, each partition is an
// append-only record log addressed by offset, and consumers track offsets
// so any suffix can be replayed. The StateFun-model runtime uses it for
// ingress/egress and for function chaining (§3: "we use Kafka to re-insert
// an event to the streaming dataflow"); the StateFlow runtime uses it as
// the replayable source its snapshot protocol rolls back to.
package queue

import (
	"fmt"
	"hash/fnv"
	"sync"

	"statefulentities.dev/stateflow/internal/chunked"
)

// Record is one log entry. Its offset is where it sits; its key chose the
// partition and is not kept.
type Record struct {
	Payload any
}

// Partition is an append-only record log. Its records sit in fixed-length
// chunks, so a record never moves once written.
type Partition struct {
	records chunked.Seq[Record]
}

// Append adds a record and returns its offset.
func (p *Partition) Append(payload any) int64 {
	off := p.End()
	p.records.Push(Record{Payload: payload})
	return off
}

// Read returns the record at offset, or ok=false past the end.
func (p *Partition) Read(offset int64) (Record, bool) {
	if offset < 0 || offset >= p.End() {
		return Record{}, false
	}
	return *p.records.At(int(offset)), true
}

// End returns the next offset to be written.
func (p *Partition) End() int64 { return int64(p.records.Len()) }

// Topic is a set of partitions.
type Topic struct {
	Partitions []*Partition
}

// PartitionFor routes a key to a partition by stable hash.
func (t *Topic) PartitionFor(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(t.Partitions)))
}

// Log is an in-memory multi-topic broker store. It is safe for concurrent
// use so both the simulator (single-threaded) and live tests can share it.
type Log struct {
	mu     sync.Mutex
	topics map[string]*Topic
}

// NewLog builds an empty log.
func NewLog() *Log {
	return &Log{topics: map[string]*Topic{}}
}

// CreateTopic declares a topic with the given partition count. Declaring
// an existing topic is an error.
func (l *Log) CreateTopic(name string, partitions int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if partitions <= 0 {
		return fmt.Errorf("queue: topic %s needs at least one partition", name)
	}
	if _, dup := l.topics[name]; dup {
		return fmt.Errorf("queue: topic %s already exists", name)
	}
	t := &Topic{}
	for i := 0; i < partitions; i++ {
		t.Partitions = append(t.Partitions, &Partition{})
	}
	l.topics[name] = t
	return nil
}

// Produce appends to the partition selected by key hash and returns
// (partition, offset).
func (l *Log) Produce(topic, key string, payload any) (int, int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.topics[topic]
	if !ok {
		return 0, 0, fmt.Errorf("queue: unknown topic %s", topic)
	}
	p := t.PartitionFor(key)
	off := t.Partitions[p].Append(payload)
	return p, off, nil
}

// Fetch reads one record from a topic partition at the given offset.
func (l *Log) Fetch(topic string, partition int, offset int64) (Record, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.topics[topic]
	if !ok {
		return Record{}, false, fmt.Errorf("queue: unknown topic %s", topic)
	}
	if partition < 0 || partition >= len(t.Partitions) {
		return Record{}, false, fmt.Errorf("queue: topic %s has no partition %d", topic, partition)
	}
	rec, ok := t.Partitions[partition].Read(offset)
	return rec, ok, nil
}
