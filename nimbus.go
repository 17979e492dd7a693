// Package nimbus is the public facade of this repository: a faithful
// reproduction of "Elasticity Detection: A Building Block for Internet
// Congestion Control" (Goyal et al.), comprising the elasticity detector,
// the Nimbus mode-switching congestion controller, every congestion
// control baseline the paper evaluates, a packet-level discrete-event
// network emulator, the paper's cross-traffic workloads, and a harness
// that regenerates every table and figure (see DESIGN.md).
//
// The exported names here are aliases for the implementation packages
// under internal/, so downstream users get one import:
//
//	det := nimbus.NewDetector(nimbus.DefaultDetectorConfig())
//	ctrl := nimbus.New(nimbus.Config{Mu: nimbus.Oracle{Rate: 96e6}, Competitive: nimbus.NewCubic()})
//
// For ready-made experiment scenarios, see RunExperiment and cmd/.
package nimbus

import (
	"nimbus/internal/cc"
	"nimbus/internal/core"
	"nimbus/internal/exp"
	"nimbus/internal/netem"
	"nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

// Core contribution: the elasticity detector and the Nimbus controller.
type (
	// Detector is the FFT-based elasticity detector (§3).
	Detector = core.Detector
	// DetectorConfig parameterizes the detector.
	DetectorConfig = core.DetectorConfig
	// Pulse is the asymmetric sinusoidal rate pulse (Fig. 7).
	Pulse = core.Pulse
	// Config parameterizes a Nimbus flow (§4).
	Config = core.Config
	// Nimbus is the mode-switching congestion controller.
	Nimbus = core.Nimbus
	// Telemetry is the per-tick snapshot Nimbus reports.
	Telemetry = core.Telemetry
	// Mode is delay-control or TCP-competitive.
	Mode = core.Mode
	// Role is pulser or watcher (§6).
	Role = core.Role
	// MuEstimator supplies the bottleneck rate µ.
	MuEstimator = core.MuEstimator
	// Oracle is a MuEstimator that returns a known link rate.
	Oracle = core.Oracle
	// BasicDelayConfig parameterizes the BasicDelay algorithm (Eq. 4).
	BasicDelayConfig = core.BasicDelayConfig
)

// Modes and roles.
const (
	ModeDelay       = core.ModeDelay
	ModeCompetitive = core.ModeCompetitive
	RolePulser      = core.RolePulser
	RoleWatcher     = core.RoleWatcher
)

// New returns a Nimbus controller (attach it to a transport.Sender or an
// exp.Rig).
func New(cfg Config) *Nimbus { return core.NewNimbus(cfg) }

// NewDetector returns a standalone elasticity detector; feed it
// cross-traffic rate samples and read Elasticity/Elastic.
func NewDetector(cfg DetectorConfig) *Detector { return core.NewDetector(cfg) }

// DefaultDetectorConfig returns the paper's detector parameters (10 ms
// samples, 5 s FFT, ηthresh = 2).
func DefaultDetectorConfig() DetectorConfig { return core.DefaultDetectorConfig() }

// EstimateZ implements the cross-traffic rate estimator ẑ = µS/R − S
// (Eq. 1).
func EstimateZ(mu, S, R float64) float64 { return core.EstimateZ(mu, S, R) }

// BasicDelayRate computes the BasicDelay sending rate (Eq. 4).
func BasicDelayRate(cfg BasicDelayConfig, mu, S, z float64, x, xmin sim.Time) float64 {
	return core.BasicDelayRate(cfg, mu, S, z, x, xmin)
}

// NewMaxReceiveRate returns the BBR-style µ estimator used by the
// paper's implementation.
func NewMaxReceiveRate(window sim.Time) MuEstimator { return core.NewMaxReceiveRate(window) }

// Congestion control baselines (all implement transport.Controller).
var (
	NewCubic    = cc.NewCubic
	NewReno     = cc.NewReno
	NewVegas    = cc.NewVegas
	NewCopa     = cc.NewCopa
	NewBBR      = cc.NewBBR
	NewVivace   = cc.NewVivace
	NewCompound = cc.NewCompound
)

// Simulation substrate re-exports.
type (
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// Scheduler is the discrete-event loop.
	Scheduler = sim.Scheduler
	// Topology is the emulated network: named nodes, directed links and
	// per-flow routes; the paper's single bottleneck (Fig. 2) is the
	// trivial one.
	Topology = netem.Topology
	// TopologySpec is a parsed topology description (presets like
	// "parking-lot", or chain specs like "access(x4,5ms)->bn").
	TopologySpec = netem.TopoSpec
	// Route is a flow path: ordered hops for the data and ACK directions.
	Route = netem.Route
	// Hop is one wire-delay + link step of a route.
	Hop = netem.Hop
	// Link is a rate-limited hop (the bottleneck in the trivial topology).
	Link = netem.Link
	// Packet is a data packet traversing the topology.
	Packet = netem.Packet
	// Sender is the transport endpoint controllers plug into.
	Sender = transport.Sender
	// Controller is the congestion-control interface.
	Controller = transport.Controller
)

// Experiment harness re-exports.
type (
	// Rig is a ready-made bottleneck network for experiments.
	Rig = exp.Rig
	// NetConfig configures a Rig.
	NetConfig = exp.NetConfig
	// Scheme is a constructed congestion controller with its spec.
	Scheme = exp.Scheme
	// SchemeSpec is a typed, serializable scheme reference: a registered
	// name plus explicit parameters, with the canonical string form
	// "nimbus(pulse=0.25,mu=est)".
	SchemeSpec = scheme.Spec
	// SchemeParam declares one typed parameter of a registered scheme.
	SchemeParam = scheme.Param
	// SchemeInfo describes a registered scheme (name, doc, parameters).
	SchemeInfo = scheme.Info
	// FlowSpec declares a group of flows on a Rig: scheme spec, count,
	// start/stop times, and route.
	FlowSpec = exp.FlowSpec
	// Flow is one instantiated flow of a FlowSpec.
	Flow = exp.Flow
)

// NewRig builds an emulated bottleneck.
func NewRig(cfg NetConfig) *Rig { return exp.NewRig(cfg) }

// ParseScheme parses a scheme spec string ("nimbus", "copa(delta=0.1)").
func ParseScheme(s string) (SchemeSpec, error) { return scheme.Parse(s) }

// MustParseScheme is ParseScheme for known-good literals; panics on error.
func MustParseScheme(s string) SchemeSpec { return scheme.MustParse(s) }

// BuildScheme constructs a scheme from its spec via the registry. muBps
// is the nominal bottleneck rate for µ oracles; mu optionally overrides
// the µ estimator (pass nil outside time-varying links).
func BuildScheme(sp SchemeSpec, muBps float64, mu MuEstimator) (Scheme, error) {
	return exp.BuildScheme(sp, muBps, mu)
}

// MustScheme parses a spec string and builds it, panicking on error —
// the one-liner for experiments:
//
//	s := nimbus.MustScheme("nimbus(pulse=0.1,mu=est)", 96e6)
//	rig.AddFlow(s, nimbus.Time(50*time.Millisecond), 0)
func MustScheme(s string, muBps float64) Scheme { return exp.MustScheme(s, muBps) }

// Schemes lists every registered scheme with its typed parameters,
// defaults, and docs (what the CLIs print for -list schemes).
func Schemes() []SchemeInfo { return scheme.List() }

// RegisterScheme adds a scheme to the registry, making it available to
// spec strings, scenarios, and sweeps everywhere in the harness.
func RegisterScheme(name, doc string, params []SchemeParam, factory scheme.Factory) {
	scheme.Register(name, doc, params, factory)
}

// ParseFlowMix parses the "nimbus*2+cubic@10" flow-mix syntax into
// FlowSpecs for Rig.AddFlowSpecs (see exp.ParseFlowMix).
func ParseFlowMix(mix string) ([]FlowSpec, error) { return exp.ParseFlowMix(mix) }

// ParseTopology resolves a topology spec string: "" or "single" (the
// paper's one-hop topology), a registered preset name, or a chain spec
// like "access(100mbps,5ms)->bn(48mbps,droptail)".
func ParseTopology(s string) (TopologySpec, error) { return netem.ParseTopology(s) }

// RegisterTopology adds a preset topology to the registry, making it
// available to spec strings, scenarios, and sweeps everywhere.
func RegisterTopology(name, doc string, spec TopologySpec) {
	netem.RegisterTopology(name, doc, spec)
}

// TopologyNames lists the registered topology presets.
func TopologyNames() []string { return netem.TopologyNames() }

// RunExperiment regenerates one of the paper's tables or figures by id
// ("fig01".."fig26", "table1", "tableE") and returns the textual report.
// quick=true uses shortened horizons suitable for tests and benchmarks.
func RunExperiment(id string, seed int64, quick bool) (string, error) {
	return exp.Run(id, seed, quick)
}

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return exp.IDs() }
