package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"lcrs/internal/binary"
	"lcrs/internal/collab"
	"lcrs/internal/dataset"
	"lcrs/internal/edge"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
	"lcrs/internal/webclient"
)

const (
	modelName = "alexnet"
	arch      = "alexnet"
	// distinctFrames is how many different frames the three non-stream
	// workloads cycle through. The reference answers cost one main-branch
	// forward per distinct frame, which is what bounds it.
	distinctFrames = 128
	// streamTargets hold-and-drift targets, one per class, each streamFrames
	// long, cut into streamRounds slices: one round replays one slice of
	// every target, scanner A first, then scanner B.
	streamTargets = 10
	streamFrames  = 140
	streamRounds  = 20
)

// options are the run-wide settings every workload is built from.
type options struct {
	seed  int64
	quick bool
	conns int // C: edge_burst connections, min(nproc, 4)
}

func newOptions(seed int64, quick bool) options {
	c := runtime.NumCPU()
	if c > 4 {
		c = 4
	}
	return options{seed: seed, quick: quick, conns: c}
}

// modelConfig is the seeded full-width AlexNet on the CIFAR shape; -quick
// narrows it so the tier-1 smoke test stays in seconds.
func (o options) modelConfig() models.Config {
	cfg := models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 1, Seed: o.seed}
	if o.quick {
		cfg.WidthScale = 0.125
	}
	return cfg
}

// scale shrinks an op or frame count in -quick mode.
func (o options) scale(n int) int {
	if !o.quick {
		return n
	}
	if n /= 20; n < 12 {
		n = 12
	}
	return n
}

// op is one frame → one answer: which session sends which distinct frame,
// and what the reference says must come back.
type op struct {
	client int
	frame  int
	want   outcome
}

// env is one workload, set up: the system under test (model, edge server on
// loopback HTTP, sessions), its inputs, and the reference answers.
type env struct {
	def   *workloadDef
	opt   options
	cfg   models.Config
	model *models.Composite // the served model
	srv   *edge.Server
	ts    *httptest.Server
	sess  []*webclient.Client
	hc    *http.Client // edge_burst's connections
	url   string       // infer endpoint

	// ref is a private inference clone of the served model: the in-process
	// reference, the encoder of edge_burst's frames, and the traced pass's
	// client-side model.
	ref    *models.Composite
	branch *binary.PackedBranch
	codec  collab.Codec

	frames []*tensor.Tensor // distinct CHW frames
	bodies [][]byte         // edge_burst: pre-encoded raw conv1 frames
	refs   []frameRef
	tau    float64
	// rounds is one pass: the op lists the rounds cycle through. A workload
	// whose sessions keep state replays a pass only after resetPass.
	rounds [][]op

	loadMs     float64
	setupS     float64
	referenceS float64
	version    string
	base       edge.ModelStats // server counters when measurement starts
}

// frameRef is the reference answer for one distinct frame.
type frameRef struct {
	entropy  float64
	binPred  int
	mainPred int        // main-branch top-1 through the codec round trip; -1 until needed
	key      collab.Key // session-cache identity of the frame's payload
}

func (e *env) close() {
	if e.hc != nil {
		e.hc.CloseIdleConnections()
	}
	if e.ts != nil {
		e.ts.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

// setup builds the system under test for one workload and times it: model
// build, edge server with the model registered, loopback listener, every
// session's bundle download (load_ms is the first session's), and the
// inputs. Reference answers are not part of it; see reference.
func setup(def *workloadDef, opt options) (*env, error) {
	start := time.Now()
	e := &env{def: def, opt: opt, cfg: opt.modelConfig(), codec: collab.Raw}
	m, err := models.Build(arch, e.cfg)
	if err != nil {
		return nil, fmt.Errorf("build model: %w", err)
	}
	if e.srv, err = edge.New(def.edgeOptions(opt)...); err != nil {
		return nil, fmt.Errorf("edge server: %w", err)
	}
	e.model = m
	if e.version, err = e.srv.Register(modelName, m); err != nil {
		e.close()
		return nil, fmt.Errorf("register model: %w", err)
	}
	e.ts = httptest.NewServer(e.srv.Handler())
	e.url = e.ts.URL + "/v1/infer/" + modelName
	if def.codec != "" {
		if e.codec, err = collab.CodecByName(def.codec); err != nil {
			e.close()
			return nil, err
		}
	}
	for i := 0; i < def.sessions; i++ {
		c, loadMs, err := e.newSession()
		if err != nil {
			e.close()
			return nil, err
		}
		if i == 0 {
			e.loadMs = loadMs
		}
		e.sess = append(e.sess, c)
	}
	e.ref = m.CloneForInference()
	e.branch = binary.PackBranch(e.ref.Binary)
	if err := def.inputs(e); err != nil {
		e.close()
		return nil, err
	}
	e.setupS = time.Since(start).Seconds()
	return e, nil
}

// newSession opens a fresh web client against the workload's edge and loads
// the model: bundle GET + decode + PackBranch, the paper's model-loading
// latency. The threshold is installed later, once reference has screened it.
func (e *env) newSession() (*webclient.Client, float64, error) {
	start := time.Now()
	opts := append([]webclient.Option{webclient.WithHTTPClient(e.ts.Client())}, e.def.clientOptions...)
	c, err := webclient.New(e.ts.URL, opts...)
	if err != nil {
		return nil, 0, fmt.Errorf("web client: %w", err)
	}
	if err := c.LoadModel(context.Background(), modelName, arch, e.cfg, 0); err != nil {
		return nil, 0, fmt.Errorf("load model: %w", err)
	}
	return c, ms(time.Since(start)), nil
}

// cycleInputs is the input of the workloads whose rounds are all alike:
// distinct CIFAR-shape frames from the synthetic generator, and a one-round
// pass that sends them in order, wrapping around.
func cycleInputs(e *env) error {
	spec, err := dataset.SpecByName("cifar10")
	if err != nil {
		return err
	}
	n := e.opt.scale(distinctFrames)
	ds := dataset.Generate(spec, n, e.opt.seed)
	for i := 0; i < n; i++ {
		x, _ := ds.Sample(i)
		e.frames = append(e.frames, x)
	}
	round := make([]op, e.opt.scale(e.def.opsPerRound))
	for i := range round {
		round[i] = op{frame: i % n}
	}
	e.rounds = [][]op{round}
	return nil
}

// streamInputs renders the hold-and-drift streams and cuts them into
// rounds. Frames within a hold are bit-identical, so only the first of each
// hold is kept as a distinct frame.
func streamInputs(e *env) error {
	spec, err := dataset.SpecByName("cifar10")
	if err != nil {
		return err
	}
	frames, nRounds := streamFrames, streamRounds
	if e.opt.quick {
		frames, nRounds = 12, 2
	}
	slice := frames / nRounds
	perTarget := make([][]int, streamTargets) // frame position → distinct frame index
	for k := 0; k < streamTargets; k++ {
		ds, err := dataset.GenerateStream(dataset.StreamSpec{
			Base: spec, Frames: frames, HoldMin: 3, HoldMax: 8,
			Amplitude: 2, Brightness: 3, Noise: 0.05,
		}, k, e.opt.seed, e.opt.seed+1+int64(k))
		if err != nil {
			return err
		}
		var prev *tensor.Tensor
		for i := 0; i < frames; i++ {
			x, _ := ds.Sample(i)
			if prev == nil || !sameData(prev, x) {
				e.frames = append(e.frames, x)
				prev = x
			}
			perTarget[k] = append(perTarget[k], len(e.frames)-1)
		}
	}
	e.rounds = make([][]op, nRounds)
	for r := range e.rounds {
		for scanner := 0; scanner < 2; scanner++ {
			for k := 0; k < streamTargets; k++ {
				for _, f := range perTarget[k][r*slice : (r+1)*slice] {
					e.rounds[r] = append(e.rounds[r], op{client: scanner, frame: f})
				}
			}
		}
	}
	return nil
}

func sameData(a, b *tensor.Tensor) bool {
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// reference computes, per distinct frame and on the private clone, what the
// system must answer: the binary branch's entropy and top-1, the frame's
// session-cache key, and — for frames the threshold sends to the edge — the
// main branch's top-1 on the activation as the workload's codec delivers
// it. It then screens the threshold (scan_stream), installs it in every
// session, fills in each op's expected outcome and, for edge_burst, encodes
// the request bodies.
func (e *env) reference() error {
	start := time.Now()
	d := e.def
	e.refs = make([]frameRef, len(e.frames))
	shared := make([]*tensor.Tensor, len(e.frames))
	weights := make([]int, len(e.frames)) // how often a pass shows each frame
	for _, round := range e.rounds {
		for _, o := range round {
			if o.client == 0 {
				weights[o.frame]++
			}
		}
	}
	var entropies []float64
	for i, x := range e.frames {
		s := e.ref.ForwardShared(x.Reshape(append([]int{1}, x.Shape...)...), false).Clone()
		shared[i] = s
		r := &e.refs[i]
		r.mainPred = -1
		if d.burst {
			continue
		}
		logits := e.branch.Forward(s)
		r.entropy = exitpolicy.NormalizedEntropy(tensor.Softmax(logits).Row(0))
		r.binPred = logits.Argmax()
		for n := 0; n < weights[i]; n++ {
			entropies = append(entropies, r.entropy)
		}
	}
	e.tau = d.tau
	if d.exitRate > 0 {
		e.tau = exitpolicy.ScreenForExitRate(entropies, d.exitRate)
	}
	for _, c := range e.sess {
		if err := c.SetTau(e.tau); err != nil {
			return err
		}
	}
	for i, s := range shared {
		r := &e.refs[i]
		if !d.burst && exitpolicy.ShouldExit(r.entropy, e.tau) {
			continue
		}
		var buf bytes.Buffer
		if err := collab.WriteTensorCodec(&buf, s, e.codec); err != nil {
			return fmt.Errorf("reference encode: %w", err)
		}
		if d.burst {
			e.bodies = append(e.bodies, append([]byte(nil), buf.Bytes()...))
		}
		t, _, err := collab.ReadFrame(&buf)
		if err != nil {
			return fmt.Errorf("reference decode: %w", err)
		}
		r.mainPred = e.ref.ForwardMainRest(t, false).Argmax()
		if r.key, err = collab.TensorKey(e.codec, s); err != nil {
			return err
		}
	}
	e.expect()
	e.referenceS = time.Since(start).Seconds()
	return nil
}

// expect fills in every op's expected outcome by walking one pass the way
// a session does: exit below the threshold; otherwise a session-cache hit
// when this session already offloaded the same payload; otherwise offload.
func (e *env) expect() {
	seen := make([]map[collab.Key]bool, len(e.sess))
	for i := range seen {
		seen[i] = map[collab.Key]bool{}
	}
	for _, round := range e.rounds {
		for i := range round {
			o := &round[i]
			r := e.refs[o.frame]
			switch {
			case !e.def.burst && exitpolicy.ShouldExit(r.entropy, e.tau):
				o.want = outcome{kind: kindExit, pred: int32(r.binPred)}
			case e.def.sessionCache && seen[o.client][r.key]:
				o.want = outcome{kind: kindHit, pred: int32(r.mainPred)}
			default:
				o.want = outcome{kind: kindOffload, pred: int32(r.mainPred)}
				if e.def.sessionCache {
					seen[o.client][r.key] = true
				}
			}
		}
	}
}

// resetPass gives a workload whose sessions and edge keep state (the two
// caches of scan_stream) the cold state a pass starts from: fresh sessions,
// and a re-activation of the served version, which builds a fresh answer
// cache. Outside any timed region.
func (e *env) resetPass() error {
	if !e.def.sessionCache {
		return nil
	}
	if err := e.srv.Activate(modelName, e.version); err != nil {
		return fmt.Errorf("re-activate: %w", err)
	}
	for i := range e.sess {
		c, _, err := e.newSession()
		if err != nil {
			return err
		}
		if err := c.SetTau(e.tau); err != nil {
			return err
		}
		e.sess[i] = c
	}
	return nil
}

// stats reads the workload's server counters.
func (e *env) stats() edge.ModelStats {
	for _, s := range e.srv.Stats() {
		if s.Name == modelName {
			return s
		}
	}
	return edge.ModelStats{}
}
