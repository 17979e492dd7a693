package transport

import "nimbus/internal/sim"

// Source is the application feeding a sender. Sizes are in bytes.
type Source interface {
	// Available returns how many bytes the application has ready.
	Available(now sim.Time) int
	// Consume tells the source n bytes were handed to the transport.
	Consume(n int)
	// Refund returns n bytes to the source after a loss (the transport
	// does not replay byte streams; lost bytes are simply re-credited,
	// which models retransmission for throughput/FCT purposes).
	Refund(n int)
	// Delivered tells the source n bytes arrived at the receiver.
	Delivered(n int, now sim.Time)
}

// Backlogged is an infinite source: the flow always has data.
type Backlogged struct{}

// Available always reports plenty of data.
func (Backlogged) Available(sim.Time) int  { return 1 << 30 }
func (Backlogged) Consume(int)             {}
func (Backlogged) Refund(int)              {}
func (Backlogged) Delivered(int, sim.Time) {}

// FiniteFlow is a fixed-size transfer (e.g. one flow from the WAN trace
// workload). OnComplete fires when all bytes have been delivered.
type FiniteFlow struct {
	Size       int
	OnComplete func(now sim.Time)

	toSend    int
	delivered int
	done      bool
}

// NewFiniteFlow returns a finite source of the given size in bytes.
func NewFiniteFlow(size int, onComplete func(now sim.Time)) *FiniteFlow {
	return &FiniteFlow{Size: size, OnComplete: onComplete, toSend: size}
}

// Available returns the bytes not yet handed to the transport.
func (f *FiniteFlow) Available(sim.Time) int { return f.toSend }

// Consume removes bytes from the send budget.
func (f *FiniteFlow) Consume(n int) {
	f.toSend -= n
	if f.toSend < 0 {
		f.toSend = 0
	}
}

// Refund re-credits lost bytes so they are sent again.
func (f *FiniteFlow) Refund(n int) { f.toSend += n }

// Delivered tracks receiver progress and fires OnComplete once.
func (f *FiniteFlow) Delivered(n int, now sim.Time) {
	f.delivered += n
	if !f.done && f.delivered >= f.Size {
		f.done = true
		if f.OnComplete != nil {
			f.OnComplete(now)
		}
	}
}

// Done reports whether the transfer completed.
func (f *FiniteFlow) Done() bool { return f.done }

// ChunkSource models a chunked application (DASH video): the application
// enqueues chunks over time; between chunks the flow is idle
// (application-limited). OnChunkDone fires when a chunk is fully
// delivered.
type ChunkSource struct {
	OnChunkDone func(now sim.Time)
	// Wake is set by the sender; the source calls it when new data
	// arrives so transmission resumes.
	Wake func()

	toSend     int
	pendingDel int // bytes of the current chunk not yet delivered
}

// AddChunk enqueues a chunk of n bytes.
func (c *ChunkSource) AddChunk(n int) {
	c.toSend += n
	c.pendingDel += n
	if c.Wake != nil {
		c.Wake()
	}
}

// Available returns undelivered-to-transport bytes.
func (c *ChunkSource) Available(sim.Time) int { return c.toSend }

// Consume removes bytes from the send budget.
func (c *ChunkSource) Consume(n int) { c.toSend -= n }

// Refund re-credits lost bytes.
func (c *ChunkSource) Refund(n int) {
	c.toSend += n
	if c.Wake != nil {
		c.Wake()
	}
}

// Delivered tracks chunk completion.
func (c *ChunkSource) Delivered(n int, now sim.Time) {
	c.pendingDel -= n
	if c.pendingDel <= 0 && c.OnChunkDone != nil {
		done := c.OnChunkDone
		c.pendingDel = 0
		done(now)
	}
}
