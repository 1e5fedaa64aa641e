package drl

import (
	"math"
	"sync"

	"routerless/internal/obs"
)

// paramServer is the parent thread's shared parameter store (§4.6, Fig. 8):
// child learners pull weight snapshots and push gradients; the server
// applies clipped SGD updates under one mutex, so every snapshot and every
// fetched copy holds exactly one update generation.
type paramServer struct {
	mu      sync.Mutex
	weights []float64
	lr      float64
	clip    float64

	// Telemetry (nil-safe no-ops when the search runs without a registry):
	// L2 gradient norms before and after element-wise clipping, and the
	// applied-update counter.
	gradPre  *obs.Gauge
	gradPost *obs.Gauge
	updateC  *obs.Counter
}

// newParamServer builds a server over a copy of init that clips each
// gradient element to ±clip (clip > 0; the search uses gradClip).
func newParamServer(init []float64, lr, clip float64, reg *obs.Registry) *paramServer {
	return &paramServer{
		weights:  append([]float64(nil), init...),
		lr:       lr,
		clip:     clip,
		gradPre:  reg.Gauge("drl.grad_norm_preclip"),
		gradPost: reg.Gauge("drl.grad_norm_postclip"),
		updateC:  reg.Counter("drl.updates"),
	}
}

// snapshot copies the current weights.
func (ps *paramServer) snapshot() []float64 {
	dst := make([]float64, len(ps.weights))
	ps.snapshotInto(dst)
	return dst
}

// snapshotInto copies the current weights into dst, the allocation-free
// variant workers use (dst is each worker's private buffer).
func (ps *paramServer) snapshotInto(dst []float64) {
	if len(dst) != len(ps.weights) {
		panic("drl: snapshot buffer/weight length mismatch")
	}
	ps.mu.Lock()
	copy(dst, ps.weights)
	ps.mu.Unlock()
}

// applyAndFetch is the per-episode round-trip: one SGD step with the
// child's gradients (Eqs. 19–20), clipping, applying, and copying each
// updated weight into dst in one pass under one lock acquisition. The
// fetched weights are exactly the post-update values this call produced.
func (ps *paramServer) applyAndFetch(grads, dst []float64) {
	if len(grads) != len(ps.weights) {
		panic("drl: gradient/weight length mismatch")
	}
	if len(dst) != len(ps.weights) {
		panic("drl: snapshot buffer/weight length mismatch")
	}
	// Norms are only accumulated when a registry was attached, keeping the
	// un-instrumented path free of the extra multiplies.
	track := ps.gradPre != nil
	ps.mu.Lock()
	preSq, postSq := applyRange(ps.weights, grads, dst, ps.lr, ps.clip, track)
	ps.mu.Unlock()
	if track {
		ps.gradPre.Set(math.Sqrt(preSq))
		ps.gradPost.Set(math.Sqrt(postSq))
		ps.updateC.Inc()
	}
}

// applyRange performs the element-wise clipped SGD update
// w[i] -= lr*clip(g[i]) for clip > 0, mirroring every updated weight into
// dst in the same pass, and returns the pre/post-clip squared gradient
// norms summed in element order (zero unless track). The telemetry branch
// is hoisted out of the per-element loop into two specialized loops; both
// perform the identical per-element arithmetic in the identical order, so
// which loop runs is bit-invisible.
func applyRange(w, g, dst []float64, lr, clip float64, track bool) (preSq, postSq float64) {
	if track {
		for i, gi := range g {
			preSq += gi * gi
			if gi > clip {
				gi = clip
			} else if gi < -clip {
				gi = -clip
			}
			postSq += gi * gi
			nw := w[i] - lr*gi
			w[i] = nw
			dst[i] = nw
		}
		return preSq, postSq
	}
	for i, gi := range g {
		if gi > clip {
			gi = clip
		} else if gi < -clip {
			gi = -clip
		}
		nw := w[i] - lr*gi
		w[i] = nw
		dst[i] = nw
	}
	return 0, 0
}
