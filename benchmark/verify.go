package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sync"

	"nimbus/internal/runner"
	"nimbus/internal/svc"
)

// wallSecRE matches the one host-time field of a runner.WriteJSON
// document; everything else in it is simulated and must repeat exactly.
var wallSecRE = regexp.MustCompile(`"wall_sec": [-+0-9.eE]+`)

// normalizeResults blanks wall_sec so two result documents of the same
// scenarios compare byte for byte.
func normalizeResults(b []byte) []byte {
	return wallSecRE.ReplaceAll(b, []byte(`"wall_sec": 0`))
}

// sameModuloWall reports whether two results documents are equal once
// wall_sec is blanked.
func sameModuloWall(a, b []byte) bool {
	return bytes.Equal(normalizeResults(a), normalizeResults(b))
}

// resultsDigest is the SHA-256 of a normalized results document: the
// fingerprint of a workload's simulated output for a seed.
func resultsDigest(docs ...[]byte) string {
	h := sha256.New()
	for _, d := range docs {
		h.Write(normalizeResults(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checker counts operations attempted and failed and keeps the first few
// failure messages. An operation is a cell (simulator workloads), a job
// (svc_*), or one whole-pass check such as byte identity or cache-stats
// reconciliation. Safe for concurrent use: the two daemon clients share
// one.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	messages  []string
}

const maxFailureMessages = 12

// op records one attempted operation; a non-empty why marks it failed.
func (c *checker) op(why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if why == "" {
		return
	}
	c.failed++
	if len(c.messages) < maxFailureMessages {
		c.messages = append(c.messages, why)
	}
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// cellFailure checks one result row against what every correct run must
// satisfy, returning "" or the first violation: no error, every metric
// finite, utilization at most 1, throughput at most the link rate.
func cellFailure(r runner.Result) string {
	name := r.Scenario.Name
	if r.Err != "" {
		return fmt.Sprintf("cell %s: err: %s", name, r.Err)
	}
	if len(r.Metrics) == 0 {
		return fmt.Sprintf("cell %s: no metrics", name)
	}
	if r.Events == 0 {
		return fmt.Sprintf("cell %s: zero events", name)
	}
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("cell %s: metric %s is %v", name, k, v)
		}
	}
	const eps = 1e-9
	if u, ok := r.Metrics["utilization"]; ok && u > 1+eps {
		return fmt.Sprintf("cell %s: utilization %.6f > 1", name, u)
	}
	if m, ok := r.Metrics["mean_mbps"]; ok && m > r.Scenario.RateMbps*(1+eps) {
		return fmt.Sprintf("cell %s: mean_mbps %.4f > link rate %g", name, m, r.Scenario.RateMbps)
	}
	return ""
}

// checkCells feeds every row through cellFailure.
func (c *checker) checkCells(rs []runner.Result) {
	for _, r := range rs {
		c.op(cellFailure(r))
	}
}

// checkSameBytes is the byte-identity check: got must equal want once
// wall_sec is blanked (or raw, for cache hits, which carry the original
// row verbatim).
func (c *checker) checkSameBytes(what string, got, want []byte, raw bool) {
	if !raw {
		got, want = normalizeResults(got), normalizeResults(want)
	}
	if bytes.Equal(got, want) {
		c.op("")
		return
	}
	c.op(fmt.Sprintf("%s: results differ from the reference (%d vs %d bytes, first difference at byte %d)",
		what, len(got), len(want), firstDiff(got, want)))
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// decodeResults parses a results document as the daemon (or
// runner.WriteJSON) emitted it.
func decodeResults(b []byte) ([]runner.Result, error) {
	var rs []runner.Result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("decoding results: %w", err)
	}
	return rs, nil
}

// statsExpect is what /cache/stats must read after a daemon pass.
type statsExpect struct {
	misses   uint64 // exactly
	diskHits uint64 // exactly
	lookups  uint64 // mem_hits + disk_hits + shared + misses, exactly
}

// statsFailure reconciles the daemon's store counters (and its
// fault-tolerance counters, which must all stay zero on a healthy run)
// with what the pass submitted.
func statsFailure(st svc.StoreStats, m svc.Metrics, want statsExpect) string {
	lookups := st.MemHits + st.DiskHits + st.Shared + st.Misses
	switch {
	case st.Misses != want.misses:
		return fmt.Sprintf("cache stats: misses %d, want %d", st.Misses, want.misses)
	case st.DiskHits != want.diskHits:
		return fmt.Sprintf("cache stats: disk_hits %d, want %d", st.DiskHits, want.diskHits)
	case lookups != want.lookups:
		return fmt.Sprintf("cache stats: %d lookups (mem %d + disk %d + shared %d + miss %d), want %d",
			lookups, st.MemHits, st.DiskHits, st.Shared, st.Misses, want.lookups)
	case st.Corrupt != 0 || st.DiskErrors != 0 || m.DiskErrors != 0:
		return fmt.Sprintf("cache stats: corrupt %d, disk_errors %d/%d, want 0", st.Corrupt, st.DiskErrors, m.DiskErrors)
	case m.JobsShed != 0 || m.WatchdogKills != 0:
		return fmt.Sprintf("daemon metrics: jobs_shed %d, watchdog_kills %d, want 0", m.JobsShed, m.WatchdogKills)
	}
	return ""
}

// modeAccuracy is the mean of mode_accuracy over the rows that carry it
// (Nimbus cells with known ground truth), and how many did.
func modeAccuracy(rs []runner.Result) (float64, int) {
	sum, n := 0.0, 0
	for _, r := range rs {
		if v, ok := r.Metrics["mode_accuracy"]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func sumEvents(rs []runner.Result) uint64 {
	var ev uint64
	for _, r := range rs {
		ev += r.Events
	}
	return ev
}
