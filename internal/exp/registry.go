package exp

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"

	"nimbus/internal/netem"
	spec "nimbus/internal/scheme"
)

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	Title string
	// Run executes the experiment and returns its report.
	Run func(seed int64, quick bool) Report
}

// Registry maps experiment ids ("fig01".."fig26", "table1", "tableE",
// "mobile", "coexist", "topo") to their runners. cmd/nimbus-bench and
// the root benchmarks both use it.
var Registry = map[string]Experiment{
	"fig01":    {"Motivating comparison (Cubic / delay-control / Nimbus)", Fig01},
	"fig03":    {"Self-inflicted delay does not reveal elasticity", Fig03},
	"fig04":    {"Cross-traffic reaction to pulses", Fig04},
	"fig05":    {"FFT of the cross-traffic estimate", Fig05},
	"fig06":    {"Eta distribution vs elastic fraction", Fig06},
	"fig07":    {"Asymmetric pulse shape", Fig07},
	"fig08":    {"Eight-scheme panel with scripted cross traffic", Fig08},
	"fig09":    {"WAN trace workload: rate/RTT distributions", Fig09},
	"fig10":    {"Copa throughput drop vs elastic flows", Fig10},
	"fig11":    {"Video cross traffic", Fig11},
	"fig12":    {"Eta tracks true elastic fraction", Fig12},
	"fig13":    {"Offered load and pulse size", Fig13},
	"fig14":    {"Accuracy vs Copa (inelastic share; RTT ratio)", Fig14},
	"fig15":    {"Accuracy vs cross-traffic RTT", Fig15},
	"fig16":    {"Multiple Nimbus flows: fairness and pulser election", Fig16},
	"fig17":    {"Multiple Nimbus flows with cross traffic", Fig17},
	"fig18":    {"Three example Internet paths", Fig18},
	"fig19":    {"25-path suite summary", Fig19},
	"fig20":    {"Cubic vs delay-control over repeated runs", Fig20},
	"fig21":    {"Cross-flow FCTs", Fig21},
	"fig22":    {"Competing with BBR across buffer sizes", Fig22},
	"fig23":    {"Copa vs Nimbus: CBR dynamics", Fig23},
	"fig24":    {"Copa vs Nimbus: elastic RTT dynamics", Fig24},
	"fig25":    {"Multi-factor accuracy sweep", Fig25},
	"fig26":    {"Detecting PCC-Vivace via pulse frequency", Fig26},
	"churn":    {"Internet-scale flow churn: schemes x session workloads", Churn},
	"coexist":  {"Heterogeneous flow mixes: coexistence and fairness", Coexist},
	"fidelity": {"Fluid vs per-packet cross traffic: approximation error and event savings", Fidelity},
	"mobile":   {"Time-varying links: schemes x capacity-trace corpus", Mobile},
	"topo":     {"Multi-hop topologies: parking-lot fairness, congested ACK paths", Topo},
	"table1":   {"Classification by traffic class", Table1},
	"tableE":   {"Buffer/RTT/AQM robustness", TableE},
}

// IDs returns the experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunReport runs one experiment by id. A cell that failed is an error
// cell in the report (Report.Failed), not an error here.
func RunReport(id string, seed int64, quick bool) (Report, error) {
	e, ok := Registry[id]
	if !ok {
		return Report{}, fmt.Errorf("unknown experiment %q (known: %v)", id, IDs())
	}
	return e.Run(seed, quick), nil
}

// Run is RunReport rendered as text.
func Run(id string, seed int64, quick bool) (string, error) {
	rep, err := RunReport(id, seed, quick)
	return rep.String(), err
}

// Listings are the names the -list flag accepts, in the order their
// listings print: the scheme registry, the embedded trace corpus, the
// topology presets and the experiment index.
var Listings = []string{"schemes", "traces", "topologies", "experiments"}

// ListUsage is the -list flag's help text, the same on every CLI.
const ListUsage = "print listings and exit: a comma-separated subset of schemes,traces,topologies,experiments"

// listNames parses a -list value into the set of listings it names. An
// unknown or empty name is an error that names the four.
func listNames(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(Listings, name) {
			return nil, fmt.Errorf("-list: unknown listing %q (have %s)", name, strings.Join(Listings, ", "))
		}
		want[name] = true
	}
	return want, nil
}

// ListText renders the -list output every CLI shares: each listing the
// comma-separated list names, once, in Listings order.
func ListText(list string) (string, error) {
	want, err := listNames(list)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if want["schemes"] {
		b.WriteString(spec.FormatList())
	}
	if want["traces"] {
		out, err := FormatTraceList()
		if err != nil {
			return "", err
		}
		b.WriteString(out)
	}
	if want["topologies"] {
		b.WriteString(FormatTopologyList())
	}
	if want["experiments"] {
		b.WriteString(FormatExperimentList())
	}
	return b.String(), nil
}

// HandleListFlag is the CLIs' shared dispatch for the -list flag: when
// it is set it prints the listings to stdout and reports true, so each
// main can simply return. A misspelt or empty name, an empty -list
// value included, exits 2 before anything prints; a listing that fails
// to render exits 1. Keeping the dispatch here, next to the renderers,
// means the three binaries cannot drift in output, error path, or exit
// code.
func HandleListFlag(list string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "list" })
	if !set {
		return false
	}
	if _, err := listNames(list); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	out, err := ListText(list)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(out)
	return true
}

// StartProfiles is the CLIs' shared -cpuprofile/-memprofile set-up: it
// starts a CPU profile into cpuPath and returns a stop function that
// writes the heap profile to memPath and then ends the CPU profile. An
// empty path skips that profile. Call stop by defer from a function that
// returns before the process exits. Heap-profile errors are printed, not
// returned: by then the run the profile describes has succeeded.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle allocations so the profile shows live heap
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Family is one group of related experiments in the registry: the paper
// reproductions (fig*, table*) and each sweep family grown on top of
// them. Name is an id prefix ("fig" covers fig01..fig26) or an exact id.
type Family struct {
	Name string
	Doc  string
}

// Families lists the experiment families in documentation order. Every
// registry id must belong to exactly one family
// (TestEveryExperimentHasFamily); docs/experiments.md documents each
// family with a runnable invocation (scripts/check_docs.sh).
var Families = []Family{
	{"fig", "paper figure reproductions (pulses, detection, coexistence dynamics)"},
	{"table", "paper table reproductions (classification accuracy, robustness)"},
	{"mobile", "time-varying links: schemes x capacity-trace corpus"},
	{"coexist", "heterogeneous flow mixes: coexistence and fairness"},
	{"topo", "multi-hop topologies: parking-lot fairness, congested ACK paths"},
	{"churn", "Internet-scale flow churn: session workloads vs long-lived schemes"},
	{"fidelity", "fluid vs per-packet cross traffic: approximation error and event savings"},
}

// FamilyOf returns the family an experiment id belongs to ("" if none):
// the longest family name that prefixes the id.
func FamilyOf(id string) string {
	best := ""
	for _, f := range Families {
		if strings.HasPrefix(id, f.Name) && len(f.Name) > len(best) {
			best = f.Name
		}
	}
	return best
}

// FormatExperimentList renders the registry index grouped by family —
// the text every CLI prints for -list experiments. Each family gets a
// "family: doc" header followed by its member experiments, so the
// listing explains what a family is for, not just which ids exist.
func FormatExperimentList() string {
	var b strings.Builder
	for _, f := range Families {
		fmt.Fprintf(&b, "%s: %s\n", f.Name, f.Doc)
		for _, id := range IDs() {
			if FamilyOf(id) == f.Name {
				fmt.Fprintf(&b, "  %-8s %s\n", id, Registry[id].Title)
			}
		}
	}
	return b.String()
}

// FormatTopologyList renders the registered topology presets with their
// hop structure — the text every CLI prints for -list topologies. Chain
// specs ("access(x4,5ms)->bn") are accepted anywhere a preset name is.
func FormatTopologyList() string {
	var b strings.Builder
	for _, name := range netem.TopologyNames() {
		ts, err := netem.ParseTopology(name)
		if err != nil {
			continue
		}
		var hops []string
		for _, l := range ts.Links {
			hops = append(hops, l.Name)
		}
		fmt.Fprintf(&b, "%-14s %-28s %s\n", name, strings.Join(hops, "->"), netem.TopologyDoc(name))
	}
	fmt.Fprintf(&b, "or a chain spec: name(params,...)->... with params like 100mbps, x4, 5ms, %s, buf=50ms, pattern=step:6:24:2000\n", netem.AQMNames("|"))
	return b.String()
}

// FormatTraceList renders the embedded capacity-trace corpus with each
// trace's span and rate range — the text every CLI prints for
// -list traces.
func FormatTraceList() (string, error) {
	var b strings.Builder
	for _, name := range netem.TraceNames() {
		s, err := netem.LoadTrace(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-12s %3d points, %5.1fs span, %5.1f-%5.1f Mbit/s (mean %5.1f)\n",
			name, len(s.Points), s.Span().Seconds(),
			s.MinBps()/1e6, s.MaxBps()/1e6, s.MeanBps(0, s.Span())/1e6)
	}
	return b.String(), nil
}
