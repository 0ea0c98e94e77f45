package bench

import (
	"fmt"
	"time"

	"lcrs/internal/baseline"
	"lcrs/internal/device"
	"lcrs/internal/edgesim"
	"lcrs/internal/models"
)

// moreAblations extends the ablation registry with the concurrency, energy
// and precision studies motivated by the paper's introduction and abstract,
// and with the replays that enforce the serving path's contracts (closed-loop
// tau, streaming caches, SLO burn) as hard errors.
func moreAblations() []Experiment {
	return []Experiment{
		{ID: "ablation-concurrency", Title: "Edge-server load under concurrent AR clients (LCRS vs edge-only)", Run: (*Runner).AblationConcurrency},
		{ID: "ablation-energy", Title: "Device energy per recognition across approaches", Run: (*Runner).AblationEnergy},
		{ID: "ablation-bits", Title: "Branch weight precision sweep (1/2/4/8-bit vs float32)", Run: (*Runner).AblationBits},
		{ID: "exitloop", Title: "Closed-loop tau control recovering the exit rate under class skew", Run: (*Runner).ExitLoop},
		{ID: "streaming", Title: "Streaming AR sessions: offloads saved by the session and edge answer caches", Run: (*Runner).Streaming},
		{ID: "slo", Title: "Windowed SLO burn and recovery: agreement floor flips /v1/health under branch disagreement", Run: (*Runner).SLOBurn},
	}
}

// AblationConcurrency simulates the edge server shared by growing numbers
// of AR clients. Edge-only saturates once offered load crosses 1; LCRS's
// binary-branch exits shed most requests and keep the queue stable — the
// introduction's economic argument for collaboration.
func (r *Runner) AblationConcurrency() error {
	arch := "resnet18"
	if r.Cfg.Quick {
		arch = "lenet"
	}
	ref, err := r.fullScale(arch)
	if err != nil {
		return err
	}
	cm := r.costModel()
	fullService := cm.Server.ComputeTime(ref.MainFLOPs())
	restService := cm.Server.ComputeTime(ref.MainRest.FLOPs(ref.SharedOutShape()))

	exitRate := 0.75 // Table I band for the deep networks
	r.printf("Edge-server queueing under concurrent clients (%s, 1 req/s per client, exit rate %.0f%%)\n",
		arch, exitRate*100)
	header := []string{"Clients", "EdgeOnly load", "EdgeOnly p95 wait", "LCRS load", "LCRS p95 wait"}
	clientCounts := []int{20, 60, 120, 200}
	if r.Cfg.Quick {
		clientCounts = []int{20, 60}
	}
	var rows [][]string
	for _, n := range clientCounts {
		eo, err := edgesim.Run(edgesim.Workload{
			Clients: n, RequestRate: 1, OffloadFraction: 1,
			ServiceTime: fullService, Duration: 60 * time.Second, Seed: r.Cfg.Seed,
		})
		if err != nil {
			return err
		}
		lc, err := edgesim.Run(edgesim.Workload{
			Clients: n, RequestRate: 1, OffloadFraction: 1 - exitRate,
			ServiceTime: restService, Duration: 60 * time.Second, Seed: r.Cfg.Seed,
		})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.2f", eo.OfferedLoad), ms(eo.P95Wait) + "ms",
			fmt.Sprintf("%.2f", lc.OfferedLoad), ms(lc.P95Wait) + "ms",
		})
	}
	r.table(header, rows)
	return nil
}

// AblationEnergy estimates the browser device's energy per recognition for
// each approach: compute energy for on-device FLOPs, radio energy for
// transfer airtime, idle draw while waiting for the edge.
func (r *Runner) AblationEnergy() error {
	em := device.MobileEnergy()
	cm := r.costModel()
	env := baseline.Env{Cost: cm, SessionSamples: r.Cfg.SessionSamples}
	exitRate := 0.75

	nets := r.nets()
	if r.Cfg.Quick {
		nets = []string{"lenet"}
	}
	r.printf("Device energy per recognition (J), %d-sample sessions, exit rate %.0f%%\n",
		r.Cfg.SessionSamples, exitRate*100)
	header := []string{"Network", "LCRS", "Neurosurgeon", "Edgent", "Mobile-only", "Edge-only"}
	var rows [][]string
	for _, arch := range nets {
		ref, err := r.fullScale(arch)
		if err != nil {
			return err
		}
		costs := models.MainLayerCosts(ref)
		clientFLOPsFor := func(rep baseline.Report) int64 {
			var f int64
			for i := 0; i <= rep.PartitionAfter && i < len(costs); i++ {
				f += costs[i].FLOPs
			}
			return f
		}
		perSampleJ := func(clientFLOPs int64, upBytes, downBytes int64, serverWait time.Duration, loadBytes int64) float64 {
			up := cm.Link.UpTime(upBytes)
			down := cm.Link.DownTime(downBytes)
			load := cm.Link.DownTime(loadBytes)
			e := device.InferenceEnergy{
				ComputeJ: float64(em.ComputeJ(clientFLOPs)),
				RadioJ:   float64(em.TxJ(up)) + float64(em.RxJ(down)) + em.RxJ(load)/float64(r.Cfg.SessionSamples),
				IdleJ:    float64(em.IdleJ(serverWait)),
			}
			return e.TotalJ()
		}

		serverRest := cm.Server.ComputeTime(ref.MainRest.FLOPs(ref.SharedOutShape()))
		lcrsJ := perSampleJ(ref.BinaryFLOPs(),
			int64(float64(ref.SharedOutBytes())*(1-exitRate)), 256, // uplink only on misses
			time.Duration(float64(serverRest)*(1-exitRate)),
			ref.BinarySizeBytes())

		ns, err := baseline.Neurosurgeon(ref, env)
		if err != nil {
			return err
		}
		nsUp := int64(0)
		if ns.PartitionAfter >= 0 && ns.PartitionAfter < len(costs)-1 {
			nsUp = costs[ns.PartitionAfter].OutBytes
		}
		// Min-communication partitions leave only the network tail at the
		// edge, so the device idles for a fraction of the full rest time.
		nsJ := perSampleJ(clientFLOPsFor(ns), nsUp, 256, serverRest/4, ns.ClientModelBytes)

		ed, err := baseline.Edgent(ref, env, baseline.DefaultEdgentOptions())
		if err != nil {
			return err
		}
		edJ := perSampleJ(clientFLOPsFor(ed), int64(float64(nsUp)*0.7), 256, serverRest/4, ed.ClientModelBytes)

		moJ := perSampleJ(ref.MainFLOPs(), 0, 0, 0, ref.MainSizeBytes())
		eoJ := perSampleJ(0, ref.InputBytes(), 256, cm.Server.ComputeTime(ref.MainFLOPs()), 0)

		rows = append(rows, []string{arch,
			fmt.Sprintf("%.3f", lcrsJ), fmt.Sprintf("%.3f", nsJ), fmt.Sprintf("%.3f", edJ),
			fmt.Sprintf("%.3f", moJ), fmt.Sprintf("%.3f", eoJ),
		})
	}
	r.table(header, rows)
	return nil
}
