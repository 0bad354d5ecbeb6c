package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"igosim/internal/schedule"
	"igosim/internal/tensor"
)

// digestChunks are the chunk sizes the chunked majors are pinned at on
// shapeCodeParams' grids (5 to 10 tiles per axis): negative, zero, one,
// mid-grid, an axis' extent, and past every extent.
var digestChunks = []int{-1, 0, 1, 2, 3, 6, 10, 14}

// digestParams are shapeCodeParams plus a one-tile grid.
func digestParams() []schedule.TileParams {
	one := testParams(tensor.Dims{M: 3, K: 4, N: 2}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	return append(shapeCodeParams(), one)
}

// digest hashes the name and every field of every op of each schedule, in
// order.
func digest(scheds []schedule.Schedule) string {
	h := sha256.New()
	for _, s := range scheds {
		fmt.Fprintf(h, "%q %d\n", s.Name, len(s.Ops))
		for _, op := range s.Ops {
			fmt.Fprintf(h, "%+v\n", op)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEmitterDigests pins the exact op sequence of every core emitter: one
// SHA-256 per emitter over its output on every digestParams shape and, for
// the chunked majors, every digestChunks size. The tuned emitters run under
// shapeCodeCfg, which sizes the fused majors' chunks strictly inside the
// grid.
func TestEmitterDigests(t *testing.T) {
	cfg := shapeCodeCfg()
	type gen = func(schedule.TileParams) []schedule.Schedule
	one := func(f func(schedule.TileParams) schedule.Schedule) gen {
		return func(p schedule.TileParams) []schedule.Schedule { return []schedule.Schedule{f(p)} }
	}
	chunked := func(f func(schedule.TileParams, int) schedule.Schedule) gen {
		return func(p schedule.TileParams) []schedule.Schedule {
			var out []schedule.Schedule
			for _, c := range digestChunks {
				out = append(out, f(p, c))
			}
			return out
		}
	}
	ordered := func(f func(schedule.TileParams, Order) schedule.Schedule) gen {
		return func(p schedule.TileParams) []schedule.Schedule {
			var out []schedule.Schedule
			for _, o := range Orders() {
				out = append(out, f(p, o))
			}
			return out
		}
	}
	cases := []struct {
		name string
		gen  gen
		want string
	}{
		{"InterleaveOnly", one(InterleaveOnly), "2e50577ff40266bfe22bf4a813145f752e936b76523e0ca9ebb5366d55684c7b"},
		{"InterleaveDXMajor", one(InterleaveDXMajor), "0c3e4f65df6f504f160c6641757608c10b45e0cd1f1326a51ea6cfe3cf02320b"},
		{"InterleaveDWMajor", one(InterleaveDWMajor), "5654b1b41d1a1682cb89627328b3c9ca034b96b41ac42f2f6f40516aad3ec81a"},
		{"InterleaveDXMajorChunked", chunked(InterleaveDXMajorChunked), "a2479cf6a067ab1be58f9fac0435baa66088a8cdef8c52860384a737c8f4d473"},
		{"InterleaveDWMajorChunked", chunked(InterleaveDWMajorChunked), "ec951be1c5041ccc2e1aff19188d95a889f77dfb1bcb8d3eac067f120bccbb22"},
		{"Interleaved", ordered(Interleaved), "d91cdb950a775aafc256db0d4586e31a611324f1a66e1f424116089939d1f94e"},
		{"TunedBaselineKernels", func(p schedule.TileParams) []schedule.Schedule {
			dx, dw := TunedBaselineKernels(cfg, p)
			return []schedule.Schedule{dx, dw}
		}, "e522e37e296e913a8948b8e79babba025791d67f7404b668506956e8e3798169"},
		{"TunedDWOnly", one(func(p schedule.TileParams) schedule.Schedule { return TunedDWOnly(cfg, p) }), "b38ba382437de0e064991d7d15173c273377885a4e2743d01f48dd93965086f6"},
		{"TunedInterleave", one(func(p schedule.TileParams) schedule.Schedule { return TunedInterleave(cfg, p) }), "b1d5a8293688d91c09e1cad1285c0dc7fe3a2fad83485aa265603f793dc58ed1"},
		{"FusedDXMajor", one(func(p schedule.TileParams) schedule.Schedule { return FusedDXMajor(cfg, p) }), "b32d68f2fe290e3bccca266f761387f07a4cdbae0a72d926a5ad3fb397583879"},
		{"FusedDWMajor", one(func(p schedule.TileParams) schedule.Schedule { return FusedDWMajor(cfg, p) }), "b08b84400f50d213ea29a1f5309299e7a5ae3e7ec1c5304df5b6dad3b2d804c7"},
		{"RearrangedWithOrder", ordered(func(p schedule.TileParams, o Order) schedule.Schedule {
			s, _ := RearrangedWithOrder(cfg, p, o)
			return s
		}), "80b11ad8c8460d1b52cec4c541f398d2b1f19ed77c2500c552464e635bbe9f83"},
	}
	for _, c := range cases {
		var all []schedule.Schedule
		for _, p := range digestParams() {
			all = append(all, c.gen(p)...)
		}
		if got := digest(all); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
