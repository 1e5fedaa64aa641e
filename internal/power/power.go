// Package power models post-place-&-route power and area for routerless
// and mesh NoC nodes. It stands in for the paper's Synopsys Design
// Compiler + Cadence Encounter flow under the 15nm NanGate FreePDK15
// library (see DESIGN.md, substitutions): the model is analytical, with
// constants anchored to the published numbers —
//
//   - mesh router node area 45,278 µm², REC/DRL node area 7,981 µm² at
//     node overlapping 14 and 5,860 µm² at overlapping 10 (Fig. 15);
//   - routerless source lookup table 443 µm² and 0.028 mW (§6.6);
//   - repeater area 0.159 mm² total for an 8×8 DRL(14) (§6.6);
//   - static power 1.23 mW (mesh) vs 0.23 mW (REC/DRL at 14) and the
//     static/dynamic split of Fig. 14, at 2.0 GHz.
//
// Dynamic power scales with measured activity (flit-hops per node per
// cycle) produced by the cycle-accurate simulator, mirroring the paper's
// use of Gem5 link-utilization statistics as activity factors.
package power

import "routerless/internal/sim"

// Params holds the calibrated model constants. The zero value is unusable;
// start from DefaultParams.
type Params struct {
	// Area model (µm² per node).
	RouterlessAreaBase    float64 // interface logic independent of wiring
	RouterlessAreaPerLoop float64 // buffer+mux per unit node overlapping
	LookupTableArea       float64 // per-node source routing table
	RepeaterAreaPerLoop   float64 // repeaters per unit overlapping
	MeshRouterArea        float64 // 5-port 2-VC router + NI

	// Static power (mW per node) at 2.0 GHz, 15nm.
	RouterlessStaticBase    float64
	RouterlessStaticPerLoop float64
	LookupTablePower        float64
	MeshStatic              float64

	// Dynamic energy coefficients (mW per flit-hop/node/cycle).
	RouterlessDynPerFlitHop float64
	MeshDynPerFlitHop       float64 // includes crossbar+VC+link per hop
	// Injection/ejection cost per flit (mW per flit/node/cycle).
	RouterlessDynPerFlit float64
	MeshDynPerFlit       float64
}

// DefaultParams returns constants fitted to the published measurements.
func DefaultParams() Params {
	return Params{
		// Fig. 15: area(cap) = 557.5 + 530.25·cap fits (10, 5860) and
		// (14, 7981) exactly; the lookup table is already included in
		// those published node areas, so it is carried as a component.
		RouterlessAreaBase:    557.5,
		RouterlessAreaPerLoop: 530.25,
		LookupTableArea:       443,
		// §6.6: 0.159 mm² of repeaters across 64 nodes at cap 14:
		// 159000/64/14 ≈ 177 µm² per node per overlapping unit.
		RepeaterAreaPerLoop: 177.5,
		MeshRouterArea:      45278,

		// Fig. 14: static 0.23 mW at cap 14 → 0.0164 per loop with no
		// base; keep a tiny base for clock distribution.
		RouterlessStaticBase:    0.006,
		RouterlessStaticPerLoop: 0.016,
		LookupTablePower:        0.028,
		MeshStatic:              1.23,

		// Fitted so PARSEC-class loads (~0.02–0.2 flit-hops/node/cycle)
		// land near Fig. 14's dynamic bars: mesh ≈ 5× routerless per
		// flit-hop (crossbar + VC allocation + deeper buffers).
		RouterlessDynPerFlitHop: 1.1,
		MeshDynPerFlitHop:       5.6,
		RouterlessDynPerFlit:    0.25,
		MeshDynPerFlit:          0.9,
	}
}

// RouterlessNodeArea returns the per-node area (µm²) of a routerless NoC
// built for the given node overlapping cap, including the lookup table
// (matching how Fig. 15 reports node area).
func (p Params) RouterlessNodeArea(overlapCap int) float64 {
	return p.RouterlessAreaBase + p.RouterlessAreaPerLoop*float64(overlapCap)
}

// RouterlessRepeaterArea returns the per-node repeater overhead (µm²).
func (p Params) RouterlessRepeaterArea(overlapCap int) float64 {
	return p.RepeaterAreaPerLoop * float64(overlapCap)
}

// MeshNodeArea returns the mesh router+NI area (µm²).
func (p Params) MeshNodeArea() float64 { return p.MeshRouterArea }

// RouterlessStatic returns per-node static power (mW) for a cap.
func (p Params) RouterlessStatic(overlapCap int) float64 {
	return p.RouterlessStaticBase + p.RouterlessStaticPerLoop*float64(overlapCap) + p.LookupTablePower
}

// MeshStaticPower returns per-node mesh static power (mW).
func (p Params) MeshStaticPower() float64 { return p.MeshStatic }

// Activity summarizes a simulation's traffic intensity for the dynamic
// model. FlitHopsPerNodeCycle = delivered flits × hops / cycles / nodes;
// FlitsPerNodeCycle is the accepted throughput.
type Activity struct {
	FlitHopsPerNodeCycle float64
	FlitsPerNodeCycle    float64
}

// ActivityOf derives the activity from a simulation's accepted throughput
// and the average hops its flits travel.
func ActivityOf(res sim.Result) Activity {
	return Activity{FlitHopsPerNodeCycle: res.Throughput * res.AvgHops, FlitsPerNodeCycle: res.Throughput}
}

// RouterlessDynamic returns per-node dynamic power (mW) for the activity.
func (p Params) RouterlessDynamic(a Activity) float64 {
	return p.RouterlessDynPerFlitHop*a.FlitHopsPerNodeCycle + p.RouterlessDynPerFlit*a.FlitsPerNodeCycle
}

// MeshDynamic returns per-node dynamic power (mW) for the activity.
func (p Params) MeshDynamic(a Activity) float64 {
	return p.MeshDynPerFlitHop*a.FlitHopsPerNodeCycle + p.MeshDynPerFlit*a.FlitsPerNodeCycle
}

// Report is a per-node power breakdown (mW).
type Report struct {
	Static  float64
	Dynamic float64
}

// Total returns static+dynamic.
func (r Report) Total() float64 { return r.Static + r.Dynamic }

// Routerless builds a full report for a routerless node.
func (p Params) Routerless(overlapCap int, a Activity) Report {
	return Report{Static: p.RouterlessStatic(overlapCap), Dynamic: p.RouterlessDynamic(a)}
}

// Mesh builds a full report for a mesh node.
func (p Params) Mesh(a Activity) Report {
	return Report{Static: p.MeshStaticPower(), Dynamic: p.MeshDynamic(a)}
}
