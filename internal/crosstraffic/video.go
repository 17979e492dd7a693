package crosstraffic

import (
	"nimbus/internal/netem"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
	"nimbus/internal/transport"
)

// VideoClient models a DASH video client (§8.1, Fig. 11): it downloads
// fixed-duration chunks over a persistent congestion-controlled
// connection, picks the bitrate with a throughput-based ABR rule, and
// paces requests to keep a playback buffer near its target. Whether the
// traffic is elastic depends on the ladder versus the available rate:
//   - a 4K ladder exceeding the fair share keeps the connection always
//     downloading (network-limited => ACK-clocked => elastic);
//   - a 1080p ladder below the fair share leaves idle gaps between chunks
//     (application-limited => inelastic).
type VideoClient struct {
	Net *netem.Topology
	Rng *sim.Rand
	RTT sim.Time
	// Route is the topology route the connection takes ("" = default).
	Route string
	// Ladder is the available bitrates in bits/s, ascending.
	Ladder []float64
	// ChunkDuration is the media duration per chunk (default 4 s).
	ChunkDuration sim.Time
	// BufferTarget is the playback buffer the client maintains
	// (default 12 s).
	BufferTarget sim.Time
	// NewCC builds the transport congestion controller (required;
	// typically Cubic).
	NewCC func() transport.Controller

	sender *transport.Sender
	src    *transport.ChunkSource

	tputEst    *stats.EWMA // bits/s
	bufLevel   sim.Time
	lastUpdate sim.Time
	chunkStart sim.Time
	chunkBits  float64
	playing    bool
	stopped    bool

	ChunksFetched int
	Rebuffers     int
	bitrateSum    float64
}

// Ladders used in the paper's two experiments.
var (
	Ladder4K    = []float64{10e6, 16e6, 25e6, 40e6}
	Ladder1080p = []float64{1e6, 2.5e6, 5e6, 8e6}
)

// Start connects the client and requests the first chunk.
func (v *VideoClient) Start(at sim.Time) {
	if v.ChunkDuration == 0 {
		v.ChunkDuration = 4 * sim.Second
	}
	if v.BufferTarget == 0 {
		v.BufferTarget = 12 * sim.Second
	}
	v.tputEst = stats.NewEWMA(0.3)
	v.src = &transport.ChunkSource{OnChunkDone: v.onChunkDone}
	v.sender = transport.NewSenderOn(v.Net, v.Route, v.RTT, v.NewCC(), v.src, v.Rng.Split("video"))
	v.Net.Sch.AtFunc(at, func() {
		v.lastUpdate = v.Net.Sch.Now()
		v.sender.Start(v.Net.Sch.Now())
		v.requestChunk()
	})
}

// Stop halts the client.
func (v *VideoClient) Stop() {
	v.stopped = true
	v.sender.Stop()
}

// Sender exposes the underlying transport (metrics).
func (v *VideoClient) Sender() *transport.Sender { return v.sender }

func (v *VideoClient) drainPlayback(now sim.Time) {
	if v.playing {
		v.bufLevel -= now - v.lastUpdate
		if v.bufLevel < 0 {
			v.bufLevel = 0
			v.playing = false // rebuffering
			v.Rebuffers++
		}
	}
	v.lastUpdate = now
}

func (v *VideoClient) pickBitrate() float64 {
	est := v.tputEst.Value()
	choice := v.Ladder[0]
	for _, b := range v.Ladder {
		if b <= 0.8*est {
			choice = b
		}
	}
	return choice
}

func (v *VideoClient) requestChunk() {
	if v.stopped {
		return
	}
	now := v.Net.Sch.Now()
	v.drainPlayback(now)
	br := v.pickBitrate()
	v.bitrateSum += br
	v.chunkStart = now
	v.chunkBits = br * v.ChunkDuration.Seconds()
	v.src.AddChunk(int(v.chunkBits / 8))
}

func (v *VideoClient) onChunkDone(now sim.Time) {
	if v.stopped {
		return
	}
	v.ChunksFetched++
	v.drainPlayback(now)
	dl := (now - v.chunkStart).Seconds()
	if dl > 0 {
		v.tputEst.Add(v.chunkBits / dl)
	}
	v.bufLevel += v.ChunkDuration
	if v.bufLevel >= v.ChunkDuration {
		v.playing = true
	}
	if v.bufLevel < v.BufferTarget {
		v.requestChunk()
		return
	}
	// Wait until the buffer drains to the target, then fetch.
	wait := v.bufLevel - v.BufferTarget
	v.Net.Sch.AfterFunc(wait, v.requestChunk)
}

// MeanBitrate returns the average requested bitrate (bits/s).
func (v *VideoClient) MeanBitrate() float64 {
	if v.ChunksFetched == 0 {
		return 0
	}
	return v.bitrateSum / float64(v.ChunksFetched)
}

// BufferLevel returns the current playback buffer (diagnostics).
func (v *VideoClient) BufferLevel() sim.Time { return v.bufLevel }
