package nn

import (
	"fmt"
	"math"
)

// GradNorm returns the global L2 norm of all accumulated gradients.
func GradNorm(params []*Param) float64 {
	s := 0.0
	for _, p := range params {
		for _, v := range p.Grad.Data {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm rescales all gradients in place so their global L2
// norm is at most maxNorm (a no-op when already within), returning the
// pre-clip norm — the standard stabilizer for large-learning-rate
// distributed training.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		p.Grad.Scale(scale)
	}
	return norm
}

// ClippedOptimizer wraps an optimizer with gradient-norm clipping
// applied immediately before each step.
type ClippedOptimizer struct {
	Base    Optimizer
	MaxNorm float64
	// LastNorm records the most recent pre-clip norm, for monitoring.
	LastNorm float64
}

// NewClippedOptimizer wraps base with the given norm ceiling.
func NewClippedOptimizer(base Optimizer, maxNorm float64) *ClippedOptimizer {
	return &ClippedOptimizer{Base: base, MaxNorm: maxNorm}
}

// Name implements Optimizer.
func (c *ClippedOptimizer) Name() string { return "clipped_" + c.Base.Name() }

// LearningRate implements Optimizer.
func (c *ClippedOptimizer) LearningRate() float64 { return c.Base.LearningRate() }

// SetLearningRate implements Optimizer.
func (c *ClippedOptimizer) SetLearningRate(lr float64) { c.Base.SetLearningRate(lr) }

// Step implements Optimizer.
func (c *ClippedOptimizer) Step(params []*Param) {
	c.LastNorm = ClipGradNorm(params, c.MaxNorm)
	c.Base.Step(params)
}

// CaptureState implements StatefulOptimizer by delegating to Base:
// clipping keeps nothing between steps, so the base's moments are the
// whole resume story, and a checkpoint that dropped them would fork the
// resumed run.
func (c *ClippedOptimizer) CaptureState(params []*Param) [][]float64 {
	if so, ok := c.Base.(StatefulOptimizer); ok {
		return so.CaptureState(params)
	}
	return nil
}

// RestoreState implements StatefulOptimizer by delegating to Base.
func (c *ClippedOptimizer) RestoreState(params []*Param, state [][]float64) error {
	if so, ok := c.Base.(StatefulOptimizer); ok {
		return so.RestoreState(params, state)
	}
	if len(state) > 0 {
		return fmt.Errorf("nn: base optimizer %s carries no state to restore", c.Base.Name())
	}
	return nil
}
