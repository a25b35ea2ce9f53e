package daemon

import (
	"bytes"
	"testing"
)

// FuzzBroadcastRequest drives what /v1/broadcast does with a body before
// any session is touched — the strict decode and normalize — on arbitrary
// bytes. It must return, without panicking, for every input; a body it
// accepts comes back with every default filled in, and normalizing it
// again changes nothing.
func FuzzBroadcastRequest(f *testing.F) {
	f.Add([]byte(`{"engine":"tcp","topology":"paragon","rows":4,"cols":4,"algorithm":"Br_Lin","distribution":"E","sources":4,"msg_bytes":1024}`))
	f.Add([]byte(`{"topology":"t3d","rows":8,"cols":8,"collective":"AllToAll"}`))
	f.Add([]byte(`{"rows":2,"cols":2,"collective":"Scatter","sources":2}`))
	f.Add([]byte(`{"rows":2,"cols":2,"extra":1}`))
	// rows·cols = 2^62 processors: a machine of that size cannot be
	// allocated.
	f.Add([]byte(`{"topology":"paragon","rows":2147483648,"cols":2147483648}`))
	// rows·cols = 3·(2^61+1) overflows, and no power of two reaches it
	// before the doubling wraps to 0.
	f.Add([]byte(`{"topology":"hypercube","rows":3,"cols":2305843009213693953}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req BroadcastRequest
		if msg := decodeRequest(bytes.NewReader(body), &req); msg != "" {
			return
		}
		if req.Engine == "" || req.Topology == "" || req.Collective == "" || req.Algorithm == "" || req.Tenant == "" {
			t.Fatalf("accepted request lacks a default: %+v", req)
		}
		again := req
		if msg := again.normalize(); msg != "" {
			t.Fatalf("normalized request rejected on a second pass: %s", msg)
		}
		if again != req {
			t.Fatalf("normalize is not idempotent: %+v then %+v", req, again)
		}
	})
}
