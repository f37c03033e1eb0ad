package nn

import (
	"errors"
	"fmt"
	"math/rand"

	"candle/internal/tensor"
)

// Sequential is a linear stack of layers with a loss and an optimizer,
// the Go analogue of keras.models.Sequential.
type Sequential struct {
	ModelName string
	Layers    []Layer

	loss Loss
	opt  Optimizer
	rng  *rand.Rand
	seed int64
	// epochsSeen counts epochs across Fit calls; it anchors the global
	// epoch index when FitConfig.EpochOffset is unset, so successive
	// Fit calls on one model keep drawing fresh shuffle orders.
	epochsSeen int
	built      bool
	dtype      tensor.DType
	inDim      int
	outDim     int
	params     []*Param
	stepCnt    int
	layerOut   map[Layer]int // per-layer output width, for Summary
	// layerParams caches each layer's Params() so Backward can notify
	// the GradSink without per-step slice allocations.
	layerParams [][]*Param
	sink        GradSink
}

// GradSink receives gradient-ready notifications during Backward: as
// each layer finishes back-propagating (reverse layer order), its
// parameters' gradients are final for the batch and are handed to the
// sink. A distributed optimizer uses this to start reducing early
// notifications (the model's last layers) while earlier layers are
// still computing — the communication/computation overlap that defines
// Horovod's performance. GradReady is called from the goroutine
// running Backward; implementations that hand the params to another
// goroutine must synchronize before the optimizer's Step reads the
// gradients.
type GradSink interface {
	GradReady(params []*Param)
}

// SetGradSink installs (or, with nil, removes) the per-layer
// gradient-ready hook. The sink is an observer: attaching one never
// changes the numerical result of training.
func (s *Sequential) SetGradSink(sink GradSink) { s.sink = sink }

// NewSequential assembles (but does not build) a model from layers.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{ModelName: name, Layers: layers}
}

// dtypeAware is implemented by layers with a native reduced-precision
// compute path.
type dtypeAware interface{ setDType(tensor.DType) }

// SetDType selects the compute precision for layers that support it
// (Dense and LSTM run native f32 kernels; everything else stays f64).
// Must be called before Compile: the fusion pass runs at build time.
// Master weights, gradients, the optimizer, and collectives remain
// float64 regardless, so checkpoints and allreduce wires are
// precision-independent.
func (s *Sequential) SetDType(dt tensor.DType) error {
	if s.built {
		return errors.New("nn: SetDType must be called before Compile")
	}
	s.dtype = dt
	return nil
}

// DType returns the compute precision the model was configured with.
func (s *Sequential) DType() tensor.DType { return s.dtype }

// fusableActivation reports whether an activation kind can be absorbed
// into the preceding Dense layer's fused f32 pass.
func fusableActivation(kind string) bool {
	switch kind {
	case "relu", "sigmoid", "tanh":
		return true
	}
	return false
}

// Compile builds every layer for the given input width, wires the loss
// and optimizer, and seeds the model's private RNG (weight init and
// dropout are deterministic per seed).
func (s *Sequential) Compile(inDim int, loss Loss, opt Optimizer, seed int64) error {
	if s.built {
		return errors.New("nn: model already compiled")
	}
	if len(s.Layers) == 0 {
		return errors.New("nn: model has no layers")
	}
	if loss == nil || opt == nil {
		return errors.New("nn: Compile needs a loss and an optimizer")
	}
	s.rng = rand.New(rand.NewSource(seed))
	s.seed = seed
	s.layerOut = make(map[Layer]int, len(s.Layers))
	if s.dtype == tensor.F32 {
		// Fusion pass: a Dense directly followed by a pointwise
		// activation absorbs it into its single fused f32 pass; the
		// Activation layer collapses to the identity.
		for i, l := range s.Layers[:len(s.Layers)-1] {
			d, ok := l.(*Dense)
			if !ok {
				continue
			}
			if a, ok := s.Layers[i+1].(*Activation); ok && fusableActivation(a.Kind) {
				d.fuse = a.Kind
				a.elided = true
			}
		}
		for _, l := range s.Layers {
			if da, ok := l.(dtypeAware); ok {
				da.setDType(tensor.F32)
			}
		}
	}
	dim := inDim
	for _, l := range s.Layers {
		out, err := l.Build(s.rng, dim)
		if err != nil {
			return fmt.Errorf("nn: building %s: %w", l.Name(), err)
		}
		dim = out
		s.layerOut[l] = out
		ps := l.Params()
		s.layerParams = append(s.layerParams, ps)
		s.params = append(s.params, ps...)
	}
	s.inDim, s.outDim = inDim, dim
	s.loss, s.opt = loss, opt
	s.built = true
	return nil
}

// Built reports whether Compile has succeeded.
func (s *Sequential) Built() bool { return s.built }

// InputDim returns the compiled input width.
func (s *Sequential) InputDim() int { return s.inDim }

// OutputDim returns the compiled output width.
func (s *Sequential) OutputDim() int { return s.outDim }

// Optimizer returns the compiled optimizer (e.g. so a distributed
// wrapper can replace or interrogate it).
func (s *Sequential) Optimizer() Optimizer { return s.opt }

// Params returns every trainable parameter in layer order.
func (s *Sequential) Params() []*Param { return s.params }

// ParamCount returns the total number of trainable scalars.
func (s *Sequential) ParamCount() int {
	n := 0
	for _, p := range s.params {
		n += len(p.Value.Data)
	}
	return n
}

// ZeroGrads clears all accumulated gradients.
func (s *Sequential) ZeroGrads() {
	for _, p := range s.params {
		p.Grad.Zero()
	}
}

func (s *Sequential) mustBuilt() {
	if !s.built {
		panic("nn: model used before Compile")
	}
}

// Forward runs the full stack; training toggles dropout.
func (s *Sequential) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	s.mustBuilt()
	if x.Cols != s.inDim {
		panic(fmt.Sprintf("nn: input width %d != compiled %d", x.Cols, s.inDim))
	}
	for _, l := range s.Layers {
		x = l.Forward(x, training)
	}
	return x
}

// Backward propagates dL/d(output) down the stack, accumulating
// parameter gradients. After each layer's backward completes, its
// parameters are announced to the GradSink (if one is attached): a
// layer's gradients receive contributions only from its own Backward
// (including regularization terms), so they are final the moment the
// layer returns, and consumers may begin reducing them while earlier
// layers are still back-propagating.
func (s *Sequential) Backward(grad *tensor.Matrix) {
	s.mustBuilt()
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
		if s.sink != nil && len(s.layerParams[i]) > 0 {
			s.sink.GradReady(s.layerParams[i])
		}
	}
}

// TrainBatch runs one optimization step (forward, loss, backward,
// optimizer update) on a batch and returns the batch loss. This is the
// "one model training iteration" inside the paper's two nested loops.
func (s *Sequential) TrainBatch(x, y *tensor.Matrix) float64 {
	s.mustBuilt()
	s.ZeroGrads()
	pred := s.Forward(x, true)
	loss, grad := s.loss.Compute(pred, y)
	s.Backward(grad)
	loss += s.RegLoss() // layers added the matching gradients in Backward
	s.opt.Step(s.params)
	s.stepCnt++
	return loss
}

// GradientsOnly computes and accumulates gradients for a batch without
// applying the optimizer, returning the loss. Distributed training
// uses it to interleave the allreduce between gradient computation and
// the update, exactly where Horovod splices in.
func (s *Sequential) GradientsOnly(x, y *tensor.Matrix) float64 {
	s.mustBuilt()
	s.ZeroGrads()
	pred := s.Forward(x, true)
	loss, grad := s.loss.Compute(pred, y)
	s.Backward(grad)
	return loss + s.RegLoss()
}

// ApplyStep applies the optimizer to the currently accumulated
// gradients (pairs with GradientsOnly).
func (s *Sequential) ApplyStep() {
	s.mustBuilt()
	s.opt.Step(s.params)
	s.stepCnt++
}

// Steps returns how many optimizer steps have been applied.
func (s *Sequential) Steps() int { return s.stepCnt }

// Predict runs inference (dropout off).
func (s *Sequential) Predict(x *tensor.Matrix) *tensor.Matrix { return s.Forward(x, false) }

// Evaluate returns the mean loss and classification accuracy (argmax
// match; for single-column outputs a 0.5 threshold) over x, y.
func (s *Sequential) Evaluate(x, y *tensor.Matrix) (loss, acc float64) {
	pred := s.Predict(x)
	loss, _ = s.loss.Compute(pred, y)
	return loss, Accuracy(pred, y)
}

// FitConfig controls Sequential.Fit.
type FitConfig struct {
	Epochs    int
	BatchSize int
	// Shuffle reshuffles sample order each epoch using the model RNG.
	Shuffle bool
	// EpochOffset, when > 0, sets the global index of the first epoch
	// this Fit call trains. Epoch-indexed behavior — the per-epoch RNG
	// stream, callback epoch arguments, checkpoint file numbering —
	// follows the global index, so a run restored from a checkpoint at
	// epoch k-1 and fitted with EpochOffset k replays exactly the
	// shuffle orders and dropout masks the uninterrupted run would
	// have used. 0 continues from the epochs this model has already
	// trained.
	EpochOffset int
	// Callbacks observe training; Horovod's broadcast hook is one.
	Callbacks []Callback
	// ValX/ValY, when non-nil, are evaluated at each epoch end.
	ValX, ValY *tensor.Matrix
}

// History records per-epoch training statistics, like the Keras
// History object.
type History struct {
	Loss    []float64 // mean training loss per epoch
	Acc     []float64 // training accuracy per epoch (post-epoch eval)
	ValLoss []float64
	ValAcc  []float64
	Batches int // batch steps per epoch actually executed
}

// Fit trains for cfg.Epochs epochs of cfg.BatchSize mini-batches —
// the two nested loops of Figure 3 in the paper.
func (s *Sequential) Fit(x, y *tensor.Matrix, cfg FitConfig) (*History, error) {
	s.mustBuilt()
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("nn: x has %d rows, y has %d", x.Rows, y.Rows)
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("nn: epochs (%d) and batch size (%d) must be positive", cfg.Epochs, cfg.BatchSize)
	}
	n := x.Rows
	bs := cfg.BatchSize
	if bs > n {
		bs = n
	}
	steps := n / bs // drop the ragged tail, as the paper's step count S/B does
	if steps == 0 {
		steps = 1
	}
	hist := &History{Batches: steps}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for _, cb := range cfg.Callbacks {
		cb.OnTrainBegin(s)
	}
	// A failed initial broadcast means the replicas never synchronized;
	// training on diverged weights would be garbage, so stop here.
	if err := trainingFailure(s.opt, cfg.Callbacks); err != nil {
		return hist, fmt.Errorf("nn: training aborted before start: %w", err)
	}
	bx := tensor.New(bs, x.Cols)
	by := tensor.New(bs, y.Cols)
	base := s.epochsSeen
	if cfg.EpochOffset > 0 {
		base = cfg.EpochOffset
	}
	for e := 0; e < cfg.Epochs; e++ {
		g := base + e // global epoch index
		// Re-synchronize the model RNG at every epoch boundary from
		// (compile seed, global epoch): shuffle order and dropout masks
		// become a function of the epoch index rather than of how many
		// draws preceded them, which is what lets a checkpoint-resumed
		// run replay the exact stream of the uninterrupted one.
		s.rng.Seed(epochSeed(s.seed, g))
		s.epochsSeen = g + 1
		for _, cb := range cfg.Callbacks {
			cb.OnEpochBegin(s, g)
		}
		if cfg.Shuffle {
			// Re-derive the order from identity each epoch: shuffling the
			// previous epoch's order in place would make epoch g's sample
			// order depend on every epoch trained in this Fit call, and a
			// checkpoint-resumed run (which starts its Fit at g) could
			// never replay it.
			for i := range order {
				order[i] = i
			}
			s.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		epochLoss := 0.0
		for step := 0; step < steps; step++ {
			for b := 0; b < bs; b++ {
				src := order[step*bs+b]
				copy(bx.Row(b), x.Row(src))
				copy(by.Row(b), y.Row(src))
			}
			l := s.TrainBatch(bx, by)
			epochLoss += l
			for _, cb := range cfg.Callbacks {
				cb.OnBatchEnd(s, g, step, l)
			}
			// A distributed optimizer whose collective aborted cannot
			// make progress; surface the failure immediately.
			if err := trainingFailure(s.opt, cfg.Callbacks); err != nil {
				return hist, fmt.Errorf("nn: training aborted at epoch %d step %d: %w", g, step, err)
			}
		}
		epochLoss /= float64(steps)
		hist.Loss = append(hist.Loss, epochLoss)
		_, acc := s.Evaluate(x, y)
		hist.Acc = append(hist.Acc, acc)
		if cfg.ValX != nil {
			vl, va := s.Evaluate(cfg.ValX, cfg.ValY)
			hist.ValLoss = append(hist.ValLoss, vl)
			hist.ValAcc = append(hist.ValAcc, va)
		}
		for _, cb := range cfg.Callbacks {
			cb.OnEpochEnd(s, g, epochLoss)
		}
		stop := false
		for _, cb := range cfg.Callbacks {
			if st, ok := cb.(Stopper); ok && st.WantsStop() {
				stop = true
			}
		}
		if stop {
			break
		}
	}
	for _, cb := range cfg.Callbacks {
		cb.OnTrainEnd(s)
	}
	return hist, nil
}

// epochSeed mixes the compile seed with a global epoch index
// (splitmix64 finalizer) so neighboring epochs get decorrelated RNG
// streams while the mapping stays a pure function of (seed, epoch).
func epochSeed(seed int64, epoch int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(epoch+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Failer is implemented by optimizers and callbacks whose work can
// fail mid-training — e.g. a distributed optimizer or broadcast hook
// whose collective aborted because a peer rank died. Fit polls it and
// returns the failure instead of training on, so a rank failure
// surfaces as an error from Fit rather than a hang or divergence.
type Failer interface {
	// Err returns the sticky first failure, or nil while healthy.
	Err() error
}

// trainingFailure returns the first failure reported by the optimizer
// or any callback implementing Failer.
func trainingFailure(opt Optimizer, cbs []Callback) error {
	if f, ok := opt.(Failer); ok {
		if err := f.Err(); err != nil {
			return err
		}
	}
	for _, cb := range cbs {
		if f, ok := cb.(Failer); ok {
			if err := f.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Callback observes Fit. All methods have empty defaults via
// BaseCallback so implementations override only what they need.
type Callback interface {
	OnTrainBegin(m *Sequential)
	OnEpochBegin(m *Sequential, epoch int)
	OnBatchEnd(m *Sequential, epoch, step int, loss float64)
	OnEpochEnd(m *Sequential, epoch int, loss float64)
	OnTrainEnd(m *Sequential)
}

// BaseCallback is an embeddable no-op Callback.
type BaseCallback struct{}

func (BaseCallback) OnTrainBegin(*Sequential)                  {}
func (BaseCallback) OnEpochBegin(*Sequential, int)             {}
func (BaseCallback) OnBatchEnd(*Sequential, int, int, float64) {}
func (BaseCallback) OnEpochEnd(*Sequential, int, float64)      {}
func (BaseCallback) OnTrainEnd(*Sequential)                    {}

// Accuracy computes classification accuracy: argmax agreement for
// multi-column outputs, 0.5-threshold agreement for single-column.
func Accuracy(pred, target *tensor.Matrix) float64 {
	if pred.Rows == 0 {
		return 0
	}
	correct := 0
	if pred.Cols == 1 {
		for i := 0; i < pred.Rows; i++ {
			p := pred.Data[i] >= 0.5
			t := target.Data[i] >= 0.5
			if p == t {
				correct++
			}
		}
	} else {
		for i := 0; i < pred.Rows; i++ {
			if argmax(pred.Row(i)) == argmax(target.Row(i)) {
				correct++
			}
		}
	}
	return float64(correct) / float64(pred.Rows)
}

func argmax(v []float64) int {
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// WeightsVector flattens all parameter values into one contiguous
// slice (a copy), in layer order — the unit Horovod broadcasts.
func (s *Sequential) WeightsVector() []float64 {
	s.mustBuilt()
	total := s.ParamCount()
	out := make([]float64, 0, total)
	for _, p := range s.params {
		out = append(out, p.Value.Data...)
	}
	return out
}

// SetWeightsVector restores parameter values from a flat slice
// produced by WeightsVector.
func (s *Sequential) SetWeightsVector(w []float64) error {
	s.mustBuilt()
	if len(w) != s.ParamCount() {
		return fmt.Errorf("nn: weights vector length %d != %d params", len(w), s.ParamCount())
	}
	off := 0
	for _, p := range s.params {
		n := len(p.Value.Data)
		copy(p.Value.Data, w[off:off+n])
		off += n
	}
	return nil
}

// GradsVector flattens all gradients into one slice (a copy) — the
// unit Horovod allreduces.
func (s *Sequential) GradsVector() []float64 {
	s.mustBuilt()
	out := make([]float64, 0, s.ParamCount())
	for _, p := range s.params {
		out = append(out, p.Grad.Data...)
	}
	return out
}

// SetGradsVector restores gradients from a flat slice (e.g. after an
// allreduce average).
func (s *Sequential) SetGradsVector(g []float64) error {
	s.mustBuilt()
	if len(g) != s.ParamCount() {
		return fmt.Errorf("nn: grads vector length %d != %d params", len(g), s.ParamCount())
	}
	off := 0
	for _, p := range s.params {
		n := len(p.Grad.Data)
		copy(p.Grad.Data, g[off:off+n])
		off += n
	}
	return nil
}
