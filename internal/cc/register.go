package cc

import (
	"errors"

	"nimbus/internal/scheme"
	"nimbus/internal/transport"
)

// Every baseline congestion controller in this package registers itself
// with the scheme registry, so experiments, sweeps, and CLIs construct
// them from spec strings ("cubic", "copa(delta=0.1)") instead of a
// hand-maintained switch. A constructor added here without a matching
// Register call fails TestEveryControllerRegistered in internal/scheme.

// fixed registers a parameterless scheme.
func fixed(name, doc string, mk func() transport.Controller) {
	scheme.Register(name, doc, nil, func(scheme.BuildContext, scheme.Args) (transport.Controller, error) {
		return mk(), nil
	})
}

func init() {
	fixed("cubic", "TCP Cubic (RFC 8312), the paper's primary TCP-competitive algorithm",
		func() transport.Controller { return NewCubic() })
	fixed("reno", "TCP NewReno: slow start, AIMD congestion avoidance",
		func() transport.Controller { return NewReno() })
	fixed("vegas", "TCP Vegas: delay-controlling, holds alpha..beta own packets queued",
		func() transport.Controller { return NewVegas() })
	fixed("bbr", "BBR v1: model-based, paces at the estimated bottleneck rate",
		func() transport.Controller { return NewBBR() })
	fixed("vivace", "PCC-Vivace: online-learning rate control over monitor intervals",
		func() transport.Controller { return NewVivace() })
	fixed("compound", "Compound TCP: sum of loss-based and delay-based windows",
		func() transport.Controller { return NewCompound() })

	deltaParam := scheme.Param{
		Name: "delta", Kind: scheme.KindFloat, Default: scheme.Num(0.5),
		Check: scheme.Positive,
		Doc:   "base delta: target rate is 1/(delta*dq)",
	}
	copaFactory := func(defaultOnly bool) scheme.Factory {
		return func(_ scheme.BuildContext, a scheme.Args) (transport.Controller, error) {
			var c *Copa
			if defaultOnly {
				c = NewCopaDefaultMode()
			} else {
				c = NewCopa()
			}
			c.deltaDefault = a.Float("delta")
			return c, nil
		}
	}
	scheme.Register("copa", "Copa with its own default/TCP-competitive mode switching",
		[]scheme.Param{deltaParam}, copaFactory(false))
	scheme.Register("copa-default", "Copa pinned to default (delay-control) mode",
		[]scheme.Param{deltaParam}, copaFactory(true))

	scheme.Register("fixedwindow", "constant congestion window, ACK-clocked (Table 1)",
		[]scheme.Param{{
			Name: "cwnd", Kind: scheme.KindFloat, Default: scheme.Num(10),
			Check: func(v float64) error {
				if v < 1 || v != float64(int(v)) {
					return errors.New("must be a positive integer packet count")
				}
				return nil
			},
			Doc: "window size in packets",
		}},
		func(_ scheme.BuildContext, a scheme.Args) (transport.Controller, error) {
			return NewFixedWindow(int(a.Float("cwnd"))), nil
		})
}
