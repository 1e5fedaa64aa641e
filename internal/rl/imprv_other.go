//go:build !amd64

package rl

// Without amd64 assembly imprvGo is the only Imprv body.

func imprvAVX512(dist []int16, ring []int32, n, sentinel int) (icw, iccw int) {
	panic("rl: AVX-512 kernel on a non-amd64 build")
}
