package tensor

// SetAVX2 points every routine with an AVX2 kernel at it (on) or at the
// portable loops, for the tests of the packages above this one, and
// returns the function that restores the dispatch.
func SetAVX2(on bool) (restore func()) {
	saved := useAVX2
	useAVX2 = on
	return func() { useAVX2 = saved }
}
