package schedule

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"igosim/internal/tensor"
)

// digestParams are the shapes every emitter is pinned on: edge tiles on
// every axis, an X factor of 0.3, partial dX and dW outputs, and non-zero
// offsets, layer and part; the same grid with canonical outputs; and a
// one-tile grid.
func digestParams() []TileParams {
	tl := Tiling{Tm: 7, Tk: 6, Tn: 4}
	edges := testParams(tensor.Dims{M: 33, K: 22, N: 11}, tl) // 5 x 4 x 3 tiles
	edges.XFactor = 0.3
	edges.DXPartial, edges.DWPartial = true, true
	edges.OffM, edges.OffK, edges.OffN = 2, 1, 3
	edges.Layer, edges.Part = 6, 3
	canonical := testParams(tensor.Dims{M: 33, K: 22, N: 11}, tl)
	one := testParams(tensor.Dims{M: 5, K: 4, N: 3}, tl)
	return []TileParams{edges, canonical, one}
}

// digestChunks are the chunk sizes every chunked emitter is pinned at:
// negative, zero, one, mid-grid, each axis' extent, and past every extent.
var digestChunks = []int{-1, 0, 1, 2, 3, 4, 5, 9}

// digest hashes the name and every field of every op of each schedule, in
// order.
func digest(scheds []Schedule) string {
	h := sha256.New()
	for _, s := range scheds {
		fmt.Fprintf(h, "%q %d\n", s.Name, len(s.Ops))
		for _, op := range s.Ops {
			fmt.Fprintf(h, "%+v\n", op)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEmitterDigests pins the exact op sequence of every emitter: one
// SHA-256 per emitter over its output on every digestParams shape and, for
// the chunked ones, every digestChunks size. Any change to loop order,
// chunking, tile keys, extents or first/last flags moves a digest.
func TestEmitterDigests(t *testing.T) {
	chunked := func(gen func(TileParams, int) []Op) func(TileParams) []Schedule {
		return func(p TileParams) []Schedule {
			var out []Schedule
			for _, c := range digestChunks {
				out = append(out, Schedule{Ops: gen(p, c)})
			}
			return out
		}
	}
	ops := func(gen func(TileParams) []Op) func(TileParams) []Schedule {
		return func(p TileParams) []Schedule { return []Schedule{{Ops: gen(p)}} }
	}
	sched := func(gen func(TileParams) Schedule) func(TileParams) []Schedule {
		return func(p TileParams) []Schedule { return []Schedule{gen(p)} }
	}
	cases := []struct {
		name string
		gen  func(TileParams) []Schedule
		want string
	}{
		{"Forward", sched(Forward), "da59fd1868549d3cf9ffa80e380652ad7fbaf65e5f96890b8b7322a9c6779e2f"},
		{"BaselineDX", ops(BaselineDX), "9c94e9bcc54c5b989f805ea09c2032fd50d9ad50401c029033c8bc6769a6296d"},
		{"BaselineDXOrdered/KM", ops(func(p TileParams) []Op { return BaselineDXOrdered(p, DXOrderKM) }), "a52cc0b193f676c0294b3d1e93e736c628cda6f4492871fe784232de2d7fc947"},
		{"BaselineDW", ops(BaselineDW), "c6b3e460a2bd7f415d4dd53c81f313aea097bec8bf1f4a0f81a9fa103cf2857b"},
		{"BaselineDWOrdered/NK", ops(func(p TileParams) []Op { return BaselineDWOrdered(p, DWOrderNK) }), "9b84e15d29caa8f6f94319a7c2701be08e380a7b2e206572b2c820e3dd4a6674"},
		{"BaselineBackward", sched(BaselineBackward), "bdcec1de3b5777e856b79a447dd517a50da1d2595227894ede41f12c07d9ee3c"},
		{"BaselineBackwardOrdered/KM-NK", sched(func(p TileParams) Schedule { return BaselineBackwardOrdered(p, DXOrderKM, DWOrderNK) }), "62d34394d2bbe0c37c2ca55013cb4a05e8a0cb25248c1f8e3cca9a0a0ac4200d"},
		{"PartialStationaryDX", chunked(PartialStationaryDX), "40e9a2d35b6931f0e7a3926225040f70d2b6f5167822e6677cb18d26d2411c62"},
		{"PartialStationaryDXCols", chunked(PartialStationaryDXCols), "5018ede6dcfe32345f405c7d4b4d0a8103f42f1799a5384f172ff13a7867c08f"},
		{"PartialStationaryDW", chunked(PartialStationaryDW), "7b12dc1a4098fdfe4b0b6e955bf37fb4253bb362b1ca019d94efca334b9e68a9"},
		{"PartialStationaryDWCols", chunked(PartialStationaryDWCols), "de493d09a545cd0808a5d5caf9ea77b033671c70327cdda52208974ef3548132"},
	}
	for _, c := range cases {
		var all []Schedule
		for _, p := range digestParams() {
			all = append(all, c.gen(p)...)
		}
		if got := digest(all); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
