package ir

// tileAVX2 is layerTile's dense layer, up to the sigmoid, in AVX2
// (tile_amd64.s): y[o*Tile+l] = wb.finish(Σ_i w[o*in+i]·x[i*Tile+l],
// b[o]) for every neuron o < len(b) and lane l. The caller checks that
// w, x and y hold len(b)*in, in*Tile and len(b)*Tile elements.
//
//go:noescape
func tileAVX2(w, b, x, y []int32, in int, wb writeback)
