package whatif

import (
	"fmt"

	"daydream/internal/core"
)

// Substitution is one MetaFlow rewrite step: layers to remove and layers
// to rescale.
type Substitution struct {
	// Remove lists layers eliminated by the substitution (paper
	// Algorithm 9, Remove_layer): every GPU task mapped to the layer is
	// removed from the dependency graph.
	Remove []string
	// Scale maps surviving layers to duration factors (Algorithm 9,
	// Scale_layer), e.g. an enlarged convolution kernel inferred from
	// profiling the substituted dimensions.
	Scale map[string]float64
}

// OptMetaFlow returns a sequence of MetaFlow/TASO-style graph
// substitutions as a patch-form Optimization value, turning Daydream
// into the "more precise cost model" for MetaFlow's backtracking search
// that the appendix describes. Each substitution removes its layers'
// GPU tasks, then rescales the named layers' GPU task durations; a
// layer with no GPU task in the view is an error.
func OptMetaFlow(subs []Substitution) core.Optimization {
	return core.PatchOpt("metaflow", core.Structural, func(p *core.Patch) error {
		if err := requireLayers(p.Base(), "MetaFlow"); err != nil {
			return err
		}
		layerTasks := func(layer string) ([]*core.Task, error) {
			var out []*core.Task
			for _, t := range p.Tasks() {
				if t.OnGPU() && t.HasLayer && t.Layer == layer {
					out = append(out, t)
				}
			}
			if len(out) == 0 {
				return nil, fmt.Errorf("whatif: MetaFlow: no GPU tasks mapped to layer %q", layer)
			}
			return out, nil
		}
		for _, s := range subs {
			for _, l := range s.Remove {
				victims, err := layerTasks(l)
				if err != nil {
					return err
				}
				for _, t := range victims {
					p.RemoveTask(t)
				}
			}
			for l, f := range s.Scale {
				tasks, err := layerTasks(l)
				if err != nil {
					return err
				}
				for _, t := range tasks {
					p.ScaleDuration(t, f)
				}
			}
		}
		return nil
	}, nil)
}
