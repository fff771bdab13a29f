package service

import (
	"context"

	"gdsiiguard"
	"gdsiiguard/internal/cluster"
	"gdsiiguard/internal/experiments"
	"gdsiiguard/internal/obs"
)

// executeClusterExplore fans an explore job out over the configured
// cluster driver instead of running NSGA-II in-process: the job's design
// becomes a DesignRef, islands execute on worker nodes, and the merged
// deduplicated Pareto front comes back as a regular Exploration (with the
// island, migration and degradation extras filled in). The design cache
// has already resolved the baseline, so the response carries baseline
// metrics exactly like the single-process path.
func (m *Manager) executeClusterExplore(ctx context.Context, job *Job) (*gdsiiguard.Exploration, error) {
	opt := job.Spec.Explore
	spec := cluster.ExploreSpec{
		Design: cluster.DesignRef{
			Benchmark: job.Spec.Benchmark,
			DEF:       job.Spec.DEF,
			ClockPS:   job.Spec.ClockPS,
			Assets:    job.Spec.Assets,
		},
		Islands:           opt.Islands,
		PopSize:           opt.PopSize,
		Generations:       opt.Generations,
		Seed:              opt.Seed,
		MigrationInterval: opt.MigrationInterval,
		MigrationCount:    opt.MigrationCount,
	}
	// Epoch checkpoints persist through the job's WAL; a retried or
	// restarted coordinator resumes at the last completed epoch instead of
	// re-running the exploration from scratch.
	spec.Checkpoint = func(cp *cluster.EpochCheckpoint) error {
		blob, err := cp.Marshal()
		if err != nil {
			return err
		}
		return m.persistCheckpoint(job, scopeCluster, blob)
	}
	if scope, blob := job.resumeState(); scope == scopeCluster && len(blob) > 0 {
		cp, err := cluster.UnmarshalEpochCheckpoint(blob)
		if err != nil {
			obs.Logger().Warn("service: discarding undecodable cluster checkpoint",
				"job", job.ID, "error", err)
		} else {
			spec.Resume = cp
		}
	}
	res, err := m.cfg.Cluster.Explore(ctx, spec)
	if err != nil {
		return nil, err
	}
	out := &gdsiiguard.Exploration{
		Evaluations: res.Evaluations,
		Knee:        -1,
		Failures:    res.Failures,
		Islands:     res.Islands,
		Migrations:  res.Migrations,
		Delta:       res.Delta,
	}
	for _, in := range res.Front {
		out.Front = append(out.Front, gdsiiguard.ParetoPoint{
			Params: gdsiiguard.FlowParams{
				Op:       gdsiiguard.Operator(in.Params.Op),
				LDAGridN: in.Params.LDAGridN,
				LDAIters: in.Params.LDAIters,
				ScaleM:   append([]float64(nil), in.Params.ScaleM...),
			},
			Metrics: gdsiiguard.Metrics{
				Security: in.Metrics.Security,
				ERSites:  in.Metrics.ERSites,
				ERTracks: in.Metrics.ERTracks,
				TNS:      in.Metrics.TNS,
				WNS:      in.Metrics.WNS,
				PowerMW:  in.Metrics.PowerMW,
				DRC:      in.Metrics.DRC,
				Runtime:  in.Metrics.Runtime,
			},
		})
	}
	if knee := experiments.SelectKnee(res.Front); knee != nil {
		for i, in := range res.Front {
			if in.Params.Key() == knee.Params.Key() {
				out.Knee = i
				break
			}
		}
	}
	for _, d := range res.Degraded {
		out.Degraded = append(out.Degraded, gdsiiguard.IslandDegradation{
			Island: d.Island,
			Node:   d.Node,
			Epoch:  d.Epoch,
			Stage:  string(d.Stage),
			Class:  string(d.Class),
			Err:    d.Err,
		})
	}
	return out, nil
}
