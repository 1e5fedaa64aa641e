package rl

// Implemented in imprv_amd64.s.

//go:noescape
func imprvAVX512(dist []int16, ring []int32, n, sentinel int) (icw, iccw int)
