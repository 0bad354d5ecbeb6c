package schedule

// OpStream is a pull-based tile-op iterator: calling the stream drives the
// generator's loop nest, invoking yield once per op in schedule order. The
// op pointer is only valid for the duration of the yield call (generators
// reuse the backing storage), so consumers that retain ops must copy them.
// Returning false from yield aborts generation immediately — the generator
// unwinds without producing the remaining ops and without leaking any
// buffers (generators hold no pooled state).
//
// Streams exist so that executing or compiling a schedule does not require
// materializing the full []Op first: peak memory stays constant in the op
// count. The eager generators (Forward, BaselineDX, PartialStationary*, …)
// are thin Collect wrappers over their stream forms.
type OpStream func(yield func(*Op) bool)

// Collect materializes a stream. sizeHint pre-sizes the slice (pass the
// exact op count when known; values <= 0 mean unknown).
func Collect(s OpStream, sizeHint int) []Op {
	ops := make([]Op, 0, max(sizeHint, 0))
	s(func(op *Op) bool {
		ops = append(ops, *op)
		return true
	})
	return ops
}

// Concat chains streams: each runs to completion before the next starts,
// and an abort in any stream aborts the rest.
func Concat(streams ...OpStream) OpStream {
	return func(yield func(*Op) bool) {
		done := false
		for _, s := range streams {
			if done {
				return
			}
			s(func(op *Op) bool {
				if !yield(op) {
					done = true
				}
				return !done
			})
		}
	}
}

// OpCount returns the number of ops any single-GEMM generator emits for p:
// one op per tile-grid point.
func (p TileParams) OpCount() int {
	mt, kt, nt := p.Tiling.Counts(p.Dims)
	return mt * kt * nt
}

// gemmStream yields g's ops over p's whole tile grid, its loops nested in
// order.
func gemmStream(p TileParams, g *gemm, order loopOrder) OpStream {
	return func(yield func(*Op) bool) {
		cnt := p.counts()
		steps := cnt[g.dims[1]]
		var pt point
		var op Op // one per stream, so yielding &op does not allocate per op
		for pt[order[0]] = 0; pt[order[0]] < cnt[order[0]]; pt[order[0]]++ {
			for pt[order[1]] = 0; pt[order[1]] < cnt[order[1]]; pt[order[1]]++ {
				for pt[order[2]] = 0; pt[order[2]] < cnt[order[2]]; pt[order[2]]++ {
					op = p.op(g, pt, steps)
					if !yield(&op) {
						return
					}
				}
			}
		}
	}
}

// ForwardStream is the stream form of Forward.
func ForwardStream(p TileParams) OpStream { return gemmStream(p, &fwdGEMM, fwdOrder) }

// BaselineDXStream is the stream form of BaselineDXOrdered.
func BaselineDXStream(p TileParams, order DXLoopOrder) OpStream {
	if order == DXOrderMK {
		return gemmStream(p, &dxGEMM, dxMKOrder)
	}
	return gemmStream(p, &dxGEMM, dxKMOrder)
}

// BaselineDWStream is the stream form of BaselineDWOrdered.
func BaselineDWStream(p TileParams, order DWLoopOrder) OpStream {
	if order == DWOrderKN {
		return gemmStream(p, &dwGEMM, dwKNOrder)
	}
	return gemmStream(p, &dwGEMM, dwNKOrder)
}

// BaselineBackwardStream is the stream form of BaselineBackwardOrdered: the
// full dX GEMM followed by the full dW GEMM as one unflushed stream.
func BaselineBackwardStream(p TileParams, dxo DXLoopOrder, dwo DWLoopOrder) OpStream {
	return Concat(BaselineDXStream(p, dxo), BaselineDWStream(p, dwo))
}

// PartialStationaryDXStream is the stream form of PartialStationaryDX.
func PartialStationaryDXStream(p TileParams, chunkRows int) OpStream {
	return func(yield func(*Op) bool) {
		mt, kt, nt := p.Tiling.Counts(p.Dims)
		var op Op // one per stream, so yielding &op does not allocate per op
		chunk := clampChunk(chunkRows, mt)
		for mc := 0; mc < mt; mc += chunk {
			hi := min(mc+chunk, mt)
			for no := 0; no < nt; no++ {
				for mo := mc; mo < hi; mo++ {
					for ko := 0; ko < kt; ko++ {
						op = p.DXOp(mo, ko, no, nt)
						if !yield(&op) {
							return
						}
					}
				}
			}
		}
	}
}

// PartialStationaryDXColsStream is the stream form of PartialStationaryDXCols.
func PartialStationaryDXColsStream(p TileParams, chunkCols int) OpStream {
	return func(yield func(*Op) bool) {
		mt, kt, nt := p.Tiling.Counts(p.Dims)
		var op Op // one per stream, so yielding &op does not allocate per op
		chunk := clampChunk(chunkCols, kt)
		for kc := 0; kc < kt; kc += chunk {
			hi := min(kc+chunk, kt)
			for no := 0; no < nt; no++ {
				for ko := kc; ko < hi; ko++ {
					for mo := 0; mo < mt; mo++ {
						op = p.DXOp(mo, ko, no, nt)
						if !yield(&op) {
							return
						}
					}
				}
			}
		}
	}
}

// PartialStationaryDWStream is the stream form of PartialStationaryDW.
func PartialStationaryDWStream(p TileParams, chunkRows int) OpStream {
	return func(yield func(*Op) bool) {
		mt, kt, nt := p.Tiling.Counts(p.Dims)
		var op Op // one per stream, so yielding &op does not allocate per op
		chunk := clampChunk(chunkRows, kt)
		for kc := 0; kc < kt; kc += chunk {
			hi := min(kc+chunk, kt)
			for mo := 0; mo < mt; mo++ {
				for ko := kc; ko < hi; ko++ {
					for no := 0; no < nt; no++ {
						op = p.DWOp(ko, no, mo, mt)
						if !yield(&op) {
							return
						}
					}
				}
			}
		}
	}
}

// PartialStationaryDWColsStream is the stream form of PartialStationaryDWCols.
func PartialStationaryDWColsStream(p TileParams, chunkCols int) OpStream {
	return func(yield func(*Op) bool) {
		mt, kt, nt := p.Tiling.Counts(p.Dims)
		var op Op // one per stream, so yielding &op does not allocate per op
		chunk := clampChunk(chunkCols, nt)
		for nc := 0; nc < nt; nc += chunk {
			hi := min(nc+chunk, nt)
			for mo := 0; mo < mt; mo++ {
				for no := nc; no < hi; no++ {
					for ko := 0; ko < kt; ko++ {
						op = p.DWOp(ko, no, mo, mt)
						if !yield(&op) {
							return
						}
					}
				}
			}
		}
	}
}
