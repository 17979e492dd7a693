package workload

import (
	"embed"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"nimbus/internal/sim"
)

// SessionArrival is one scheduled session: a flow of Bytes arriving At
// after the workload starts.
type SessionArrival struct {
	At    sim.Time
	Bytes int
}

// SessionTrace is a deterministic arrival schedule for the trace session
// model: instead of drawing arrival times and sizes from distributions,
// the generator replays exactly these sessions. Traces capture structured
// load a Poisson model can't — flash crowds, diurnal ramps, measured
// packet captures reduced to (start, bytes) pairs.
type SessionTrace struct {
	Arrivals []SessionArrival
}

// maxTraceLines bounds parsed traces; a line per session at this cap is
// far beyond any plausible scenario and keeps hostile inputs cheap.
const maxTraceLines = 1 << 20

// ParseSessionTrace parses the session-trace format: one
// "time_ms,bytes" pair per line, '#' comments and blank lines ignored,
// an optional "time_ms,bytes" header. Times must be non-negative and
// non-decreasing; sizes must be positive. name labels errors.
func ParseSessionTrace(name string, data []byte) (*SessionTrace, error) {
	tr := &SessionTrace{}
	lastMs := -1.0
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "time_ms,bytes" { // optional header
			if len(tr.Arrivals) == 0 {
				continue
			}
			return nil, fmt.Errorf("workload: trace %s:%d: header after data", name, ln+1)
		}
		tf, bf, found := strings.Cut(line, ",")
		if !found {
			return nil, fmt.Errorf("workload: trace %s:%d: want time_ms,bytes, got %q", name, ln+1, line)
		}
		tms, err := strconv.ParseFloat(strings.TrimSpace(tf), 64)
		if err != nil || tms < 0 || tms != tms || tms > 1e12 {
			return nil, fmt.Errorf("workload: trace %s:%d: bad time_ms %q", name, ln+1, tf)
		}
		bytes, err := strconv.Atoi(strings.TrimSpace(bf))
		if err != nil || bytes <= 0 {
			return nil, fmt.Errorf("workload: trace %s:%d: bad bytes %q", name, ln+1, bf)
		}
		if tms < lastMs {
			return nil, fmt.Errorf("workload: trace %s:%d: time %g ms before previous %g ms", name, ln+1, tms, lastMs)
		}
		lastMs = tms
		if len(tr.Arrivals) >= maxTraceLines {
			return nil, fmt.Errorf("workload: trace %s: more than %d sessions", name, maxTraceLines)
		}
		tr.Arrivals = append(tr.Arrivals, SessionArrival{At: sim.FromSeconds(tms / 1e3), Bytes: bytes})
	}
	if len(tr.Arrivals) == 0 {
		return nil, fmt.Errorf("workload: trace %s: no sessions", name)
	}
	return tr, nil
}

//go:embed straces/*.csv
var embeddedTraces embed.FS

// TraceNames lists the embedded session traces, sorted.
func TraceNames() []string {
	entries, _ := embeddedTraces.ReadDir("straces")
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".csv"))
	}
	sort.Strings(names)
	return names
}

// LoadSessionTrace resolves src as an embedded trace name first, then as
// a file path.
func LoadSessionTrace(src string) (*SessionTrace, error) {
	if data, err := embeddedTraces.ReadFile("straces/" + src + ".csv"); err == nil {
		return ParseSessionTrace(src, data)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		return nil, fmt.Errorf("workload: trace %q: not an embedded trace (have %s) and %v",
			src, strings.Join(TraceNames(), ", "), err)
	}
	return ParseSessionTrace(src, data)
}
