package power

// PoLiMEr (via Cray CapMC) reports Theta power at three levels — the
// whole node, the CPU package, and memory — sampled together. This
// file models that component breakdown on top of the phase model.

// Components is one reading split by hardware component (watts).
type Components struct {
	Node float64 // total node draw
	CPU  float64 // KNL package
	Mem  float64 // MCDRAM+DDR
}

// ComponentModel maps phases to component draws. The node value must
// dominate CPU+Mem (the remainder is NIC/board/VRM losses); Validate
// enforces that.
type ComponentModel struct {
	Watts [numPhases]Components
}

// NewComponentModel builds a model; phases absent from the map draw
// the idle components.
func NewComponentModel(idle Components, watts map[Phase]Components) ComponentModel {
	var m ComponentModel
	for i := range m.Watts {
		m.Watts[i] = idle
	}
	for ph, w := range watts {
		if ph >= 0 && ph < numPhases {
			m.Watts[ph] = w
		}
	}
	return m
}

// Validate checks the physical sanity of every phase: components are
// non-negative and the node total covers CPU+Mem.
func (m ComponentModel) Validate() error {
	for ph, w := range m.Watts {
		if w.CPU < 0 || w.Mem < 0 || w.Node < 0 {
			return errNegative(Phase(ph))
		}
		if w.CPU+w.Mem > w.Node {
			return errExceeds(Phase(ph))
		}
	}
	return nil
}

type componentErr struct {
	ph   Phase
	kind string
}

func (e componentErr) Error() string {
	return "power: phase " + e.ph.String() + ": " + e.kind
}

func errNegative(ph Phase) error { return componentErr{ph, "negative component draw"} }
func errExceeds(ph Phase) error  { return componentErr{ph, "CPU+Mem exceeds node draw"} }

// At returns the component draws for a phase.
func (m ComponentModel) At(ph Phase) Components {
	if ph < 0 || ph >= numPhases {
		return Components{}
	}
	return m.Watts[ph]
}

// Energy integrates each component over the profile (joules).
func (m ComponentModel) Energy(p Profile) Components {
	var e Components
	add := func(w Components, dt float64) {
		e.Node += w.Node * dt
		e.CPU += w.CPU * dt
		e.Mem += w.Mem * dt
	}
	for i, s := range p {
		add(m.At(s.Phase), s.Dur())
		if i > 0 {
			if gap := s.Start - p[i-1].End; gap > 0 {
				add(m.At(Idle), gap)
			}
		}
	}
	return e
}

// ComponentSample is one PoLiMEr-style reading.
type ComponentSample struct {
	T float64
	W Components
}

// Samples reads the profile at rateHz, like CapMC's ~2 samples/s.
func (m ComponentModel) Samples(p Profile, rateHz float64) []ComponentSample {
	if rateHz <= 0 || len(p) == 0 {
		return nil
	}
	start := p[0].Start
	n := int(p.Duration()*rateHz) + 1
	out := make([]ComponentSample, 0, n)
	for i := 0; i < n; i++ {
		t := start + float64(i)/rateHz
		out = append(out, ComponentSample{T: t, W: m.At(p.phaseAt(t))})
	}
	return out
}

// ContainerComponents returns the component model benchmark/ uses for
// the measurement host (a small x86 container or laptop core): the
// same phase structure CapMC reports on Theta, scaled to commodity-node
// draws. Compute saturates the package;
// loading and collectives are I/O/wait-bound with lower draw. These
// are modeling assumptions, not measurements — the harness documents
// them next to every joule it emits (DESIGN.md §19), and a deployment
// with real RAPL/IPMI telemetry can substitute its own model.
func ContainerComponents() ComponentModel {
	return NewComponentModel(
		Components{Node: 45, CPU: 22, Mem: 6},
		map[Phase]Components{
			DataLoad:  {Node: 62, CPU: 34, Mem: 12},
			Broadcast: {Node: 58, CPU: 31, Mem: 9},
			Compute:   {Node: 92, CPU: 60, Mem: 16},
			Allreduce: {Node: 68, CPU: 40, Mem: 11},
			Evaluate:  {Node: 84, CPU: 53, Mem: 14},
		})
}

// ThetaComponents returns a representative CapMC-style component model
// for a Theta node running a CANDLE benchmark: compute saturates the
// KNL package; data loading is I/O-bound with modest CPU and memory
// draw.
func ThetaComponents() ComponentModel {
	return NewComponentModel(
		Components{Node: 180, CPU: 95, Mem: 25},
		map[Phase]Components{
			DataLoad:  {Node: 210, CPU: 115, Mem: 35},
			Broadcast: {Node: 215, CPU: 120, Mem: 35},
			Compute:   {Node: 320, CPU: 205, Mem: 60},
			Allreduce: {Node: 240, CPU: 140, Mem: 40},
			Evaluate:  {Node: 290, CPU: 180, Mem: 55},
		})
}
