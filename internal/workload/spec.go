package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	scheme "nimbus/internal/scheme"
)

// Spec is a parsed churn-workload spec: a session model plus typed
// parameters, written "model(k=v,...)" — "bulk(load=24)",
// "web(load=12,cc=bbr)", "video(load=16,rate=4)",
// "trace(src=flash-crowd)". Unset parameters take defaults and stay out
// of the canonical String(), mirroring scheme specs: the canonical form
// enters runner.Scenario.Key verbatim, so equivalent spellings must
// collapse to one string.
type Spec struct {
	// Model is the session model: "bulk" (single Poisson flows with
	// bounded-Pareto sizes), "web" (multi-object page sessions), "video"
	// (chunked streaming sessions), or "trace" (arrivals replayed from a
	// session trace).
	Model string
	// Load is the offered load in Mbit/s (bulk, web, video; default 12).
	Load float64
	// CC is the congestion-control scheme each session flow runs, as a
	// canonical scheme spec string (default "cubic").
	CC string
	// Max caps concurrently active flows; arrivals beyond it are dropped
	// and counted (0 = unlimited).
	Max int
	// Alpha, XM, Cap parameterize the bulk model's bounded-Pareto flow
	// sizes: shape, minimum bytes, maximum bytes.
	Alpha, XM, Cap float64
	// Rate is the video model's per-session bitrate in Mbit/s.
	Rate float64
	// Src names the trace model's session trace: an embedded name (see
	// TraceNames) or a time_ms,bytes file path.
	Src string
}

// specDefaults are the parameter defaults every model starts from.
func specDefaults(model string) Spec {
	return Spec{
		Model: model,
		Load:  12,
		CC:    "cubic",
		Alpha: 1.2,
		XM:    6e3,
		Cap:   3e7,
		Rate:  4,
	}
}

// validParams lists the parameters each model accepts.
var validParams = map[string][]string{
	"bulk":  {"load", "cc", "max", "alpha", "xm", "cap"},
	"web":   {"load", "cc", "max"},
	"video": {"load", "cc", "max", "rate"},
	"trace": {"src", "cc", "max"},
}

// Models lists the session models, in documentation order.
func Models() []string { return []string{"bulk", "web", "video", "trace"} }

// ParseSpec parses and validates a workload spec string. The returned
// spec's String() is canonical: parameters sorted, values normalized
// ("load=24.0" becomes "load=24"), and parameters left at or set to their
// default omitted ("bulk(load=12)" is "bulk").
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	model, body := s, ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return Spec{}, fmt.Errorf("workload: spec %q: missing closing parenthesis", s)
		}
		model, body = s[:i], s[i+1:len(s)-1]
	}
	model = strings.TrimSpace(model)
	valid, ok := validParams[model]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown session model %q (have %s)", model, strings.Join(Models(), ", "))
	}
	sp := specDefaults(model)
	for _, kv := range scheme.SplitTop(body, ',') {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return Spec{}, fmt.Errorf("workload: spec %q: parameter %q is not k=v", s, kv)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !slicesContains(valid, k) {
			return Spec{}, fmt.Errorf("workload: model %s has no parameter %q (has %s)", model, k, strings.Join(valid, ", "))
		}
		if err := sp.setParam(k, v); err != nil {
			return Spec{}, fmt.Errorf("workload: spec %q: %v", s, err)
		}
	}
	if err := sp.validate(); err != nil {
		return Spec{}, fmt.Errorf("workload: spec %q: %v", s, err)
	}
	return sp, nil
}

// MustParseSpec is ParseSpec for known-good specs; it panics on error.
func MustParseSpec(s string) Spec {
	sp, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return sp
}

func (sp *Spec) setParam(k, v string) error {
	parseF := func() (float64, error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("parameter %s: bad number %q", k, v)
		}
		return f, nil
	}
	var err error
	switch k {
	case "load":
		sp.Load, err = parseF()
	case "alpha":
		sp.Alpha, err = parseF()
	case "xm":
		sp.XM, err = parseF()
	case "cap":
		sp.Cap, err = parseF()
	case "rate":
		sp.Rate, err = parseF()
	case "max":
		sp.Max, err = strconv.Atoi(v)
		if err != nil {
			err = fmt.Errorf("parameter max: bad integer %q", v)
		}
	case "cc":
		cs, perr := scheme.Parse(v)
		if perr != nil {
			return perr
		}
		if cs, perr = scheme.Canonical(cs); perr != nil {
			return perr
		}
		sp.CC = cs.String()
	case "src":
		if v == "" {
			return fmt.Errorf("parameter src: empty")
		}
		sp.Src = v
	}
	return err
}

func (sp Spec) validate() error {
	if sp.Model == "trace" {
		if sp.Src == "" {
			return fmt.Errorf("model trace requires src=")
		}
	} else if sp.Load <= 0 {
		return fmt.Errorf("load %g must be positive", sp.Load)
	}
	if sp.Max < 0 {
		return fmt.Errorf("max %d must be non-negative", sp.Max)
	}
	if sp.Alpha <= 0 {
		return fmt.Errorf("alpha %g must be positive", sp.Alpha)
	}
	if sp.XM <= 0 || sp.Cap <= sp.XM {
		return fmt.Errorf("size bounds need 0 < xm (%g) < cap (%g)", sp.XM, sp.Cap)
	}
	if sp.Rate <= 0 {
		return fmt.Errorf("rate %g must be positive", sp.Rate)
	}
	return nil
}

// String returns the canonical spec: the model name alone when every
// parameter is default, otherwise "model(k=v,...)" with the non-default
// parameters sorted by name.
func (sp Spec) String() string {
	def := specDefaults(sp.Model)
	keys := append([]string(nil), validParams[sp.Model]...)
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		if v := sp.paramString(k); v != def.paramString(k) {
			parts = append(parts, k+"="+v)
		}
	}
	if len(parts) == 0 {
		return sp.Model
	}
	return sp.Model + "(" + strings.Join(parts, ",") + ")"
}

func (sp Spec) paramString(k string) string {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	switch k {
	case "load":
		return g(sp.Load)
	case "alpha":
		return g(sp.Alpha)
	case "xm":
		return g(sp.XM)
	case "cap":
		return g(sp.Cap)
	case "rate":
		return g(sp.Rate)
	case "max":
		return strconv.Itoa(sp.Max)
	case "cc":
		return sp.CC
	case "src":
		return sp.Src
	}
	return ""
}

func slicesContains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
