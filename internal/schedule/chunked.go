package schedule

// Chunked partial-stationary loop orders: the multi-level tilings of the
// prior scheduling studies the paper's baseline includes (GAMMA, Moon et
// al.). The output is processed in chunks whose partial sums stay resident
// in SPM while the reduction dimension runs in a middle loop; operand bands
// are then streamed once per chunk instead of once per output tile row.
// These orders complete each output tile only after the full reduction, so
// they emit exactly the same op multiset as the reduction-inner orders.
//
// Each order is one walk over the tile grid with one axis chunked.

// clampChunk bounds a chunk size (in tiles) to [1, total].
func clampChunk(chunk, total int) int {
	if chunk < 1 {
		return 1
	}
	if chunk > total {
		return total
	}
	return chunk
}

// PartialStationaryDX generates the dX GEMM with row-chunked partials:
//
//	for each chunk of dX tile-rows:
//	    for no (reduction): for mo in chunk: for ko: dX(mo,ko) += ...
//
// dY is read once per layer, W once per chunk; the live partials are
// chunkRows x K.
func PartialStationaryDX(p TileParams, chunkRows int) []Op {
	return walk(p, loopOrder{axN, axM, axK}, axM, chunkRows, &dxGEMM)
}

// PartialStationaryDXCols generates the dX GEMM with column-chunked
// partials (chunks over K): W is read once per layer, dY once per chunk;
// the live partials are M x chunkCols.
func PartialStationaryDXCols(p TileParams, chunkCols int) []Op {
	return walk(p, loopOrder{axN, axK, axM}, axK, chunkCols, &dxGEMM)
}

// PartialStationaryDW generates the dW GEMM with row-chunked partials
// (chunks over K): X is read once per layer, dY once per chunk; the live
// partials are chunkRows x N.
func PartialStationaryDW(p TileParams, chunkRows int) []Op {
	return walk(p, loopOrder{axM, axK, axN}, axK, chunkRows, &dwGEMM)
}

// PartialStationaryDWCols generates the dW GEMM with column-chunked
// partials (chunks over N): dY is read once per layer, X once per chunk;
// the live partials are K x chunkCols.
func PartialStationaryDWCols(p TileParams, chunkCols int) []Op {
	return walk(p, loopOrder{axM, axN, axK}, axN, chunkCols, &dwGEMM)
}

// DXMajorOps is the fused Interleaving+dXmajor order (Figure 10b): the
// row-chunked partial-stationary dX walk, emitting each point's dX op and
// then its dW op, so each dY tile feeds both gradients back to back and dY
// is read once. dX completes chunkRows tile-rows at a time; every dW tile
// stays a partial sum for the whole M sweep.
func DXMajorOps(p TileParams, chunkRows int) []Op {
	return walk(p, loopOrder{axN, axM, axK}, axM, chunkRows, &dxGEMM, &dwGEMM)
}

// DWMajorOps is the fused Interleaving+dWmajor order (Figure 10c): the
// column-chunked partial-stationary dW walk, emitting each point's dW op
// and then its dX op, so each dY tile feeds both gradients back to back
// and dY is read once. dW completes chunkCols tile-columns at a time;
// every dX tile stays a partial sum for the whole N sweep.
func DWMajorOps(p TileParams, chunkCols int) []Op {
	return walk(p, loopOrder{axM, axN, axK}, axN, chunkCols, &dwGEMM, &dxGEMM)
}
