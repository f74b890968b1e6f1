// White-box size pin of the Simulation client's per-request record.
package stateflow

import (
	"testing"
	"unsafe"
)

// TestClientRecordIsCompact pins the client edge's record of one request
// at 128 bytes: a map stores a larger value out of line, one allocation per
// request.
func TestClientRecordIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(clientCall{}); n > 128 {
		t.Errorf("clientCall is %d bytes, ceiling 128", n)
	}
	t.Logf("clientCall is %d bytes", unsafe.Sizeof(clientCall{}))
}
