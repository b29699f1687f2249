package mp

import "fmt"

// Request is a handle on a nonblocking operation, mirroring
// MPI_Request. Complete it with Wait.
type Request struct {
	c    *Comm
	done bool

	// receive side
	isRecv   bool
	src, tag int
	f        []float64
	i        []int32
}

// ISend posts a nonblocking send. Because the runtime's sends are
// eager and buffered, the data is already on its way when ISend
// returns; the request completes immediately but is returned for
// symmetry with MPI code structure. Handles come from the world's
// request pool; steady-state callers hand them back with Release.
func (c *Comm) ISend(dst, tag int, f []float64, ints []int32) *Request {
	c.Send(dst, tag, f, ints)
	r := c.w.getReq()
	*r = Request{c: c, done: true}
	return r
}

// IRecv posts a nonblocking receive for (src, tag). The matching and
// clock accounting happen at Wait time; posting is free. This models
// MPI's ability to overlap communication with computation: any
// compute the rank performs between IRecv and Wait runs "during" the
// transfer on the virtual timeline. Handles come from the world's
// request pool; steady-state callers hand them back with Release.
func (c *Comm) IRecv(src, tag int) *Request {
	if src < 0 || src >= c.size {
		panic(fmt.Sprintf("mp: irecv from invalid rank %d of %d", src, c.size))
	}
	r := c.w.getReq()
	*r = Request{c: c, isRecv: true, src: src, tag: tag}
	return r
}

// Release returns a completed request handle to the world's pool so
// the steady-state split-phase exchange allocates nothing. The caller
// must not touch the request afterwards (payload slices obtained from
// Wait are unaffected — return those with FreeBuffers). Releasing is
// optional; unreleased requests are simply garbage collected.
func (r *Request) Release() {
	w := r.c.w
	*r = Request{}
	w.poolMu.Lock()
	w.freeReq = append(w.freeReq, r)
	w.poolMu.Unlock()
}

// Wait blocks until the operation completes and returns the received
// payloads (nil for sends). Waiting twice is an error.
func (r *Request) Wait() ([]float64, []int32) {
	if r.done {
		if r.isRecv {
			return r.f, r.i
		}
		return nil, nil
	}
	r.done = true
	r.f, r.i = r.c.Recv(r.src, r.tag)
	return r.f, r.i
}
