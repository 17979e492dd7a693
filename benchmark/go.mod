module nimbus/benchmark

go 1.23

require nimbus v0.0.0

replace nimbus => ../
