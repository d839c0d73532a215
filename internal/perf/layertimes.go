package perf

import (
	"calculon/internal/execution"
	"calculon/internal/layers"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// LayerTiming is one row of a per-layer cost profile: how the processing
// model priced a single layer of the transformer block for one microbatch.
type LayerTiming struct {
	Name   string
	Engine layers.Engine

	FwdFLOPs   units.FLOPs
	FwdTraffic units.Bytes
	FwdTime    units.Seconds
	// FwdBound reports what limited the forward op: "compute" or "memory".
	FwdBound string

	BwdTime units.Seconds

	WeightBytes units.Bytes
	ActBytes    units.Bytes
}

// LayerTimes profiles one transformer block under the configuration,
// layer by layer — the observability view behind `calculon run -layers`.
func LayerTimes(m model.LLM, sys system.System, st execution.Strategy) ([]LayerTiming, error) {
	if err := checkInputs(&m, &sys, &st); err != nil {
		return nil, err
	}
	ls := layers.Block(m, shardFor(&st))
	out := make([]LayerTiming, 0, len(ls))
	for _, l := range ls {
		ft, slack := opTime(&sys, l.Engine, l.FLOPs, l.Traffic)
		bt, _ := opTime(&sys, l.Engine, l.BwdFLOPs, l.BwdTraffic)
		bound := "memory"
		if slack > 0 || l.Traffic == 0 {
			bound = "compute"
		}
		out = append(out, LayerTiming{
			Name:        l.Name,
			Engine:      l.Engine,
			FwdFLOPs:    l.FLOPs,
			FwdTraffic:  l.Traffic,
			FwdTime:     ft,
			FwdBound:    bound,
			BwdTime:     bt,
			WeightBytes: l.WeightBytes,
			ActBytes:    l.ActBytes,
		})
	}
	return out, nil
}
