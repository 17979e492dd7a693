package svc

import (
	"context"
	"io"
	"runtime"
	"testing"
)

// BenchmarkWarmJob is one resubmission of a cached 6-cell grid per op
// through an httptest daemon: submit, stream the events, fetch the raw
// results — the memory-tier hit path a warm nimbus-svc serves. Client and
// daemon share the process, so allocs/op and B/op count both sides.
// retained-B/job is what each finished job adds to the live heap after
// runtime.GC (reported, not gated).
func BenchmarkWarmJob(b *testing.B) {
	client, _ := newTestServer(b, stubRun)
	ctx := context.Background()
	g := smallGrid()
	g.RatesMbps = []float64{24, 48, 96}
	job := func() {
		created, err := client.Submit(ctx, g, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := client.StreamEvents(ctx, created.ID, io.Discard); err != nil {
			b.Fatal(err)
		}
		if _, err := client.RawResults(ctx, created.ID); err != nil {
			b.Fatal(err)
		}
	}
	job() // the cold job fills the cache
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(b.N), "retained-B/job")
}
