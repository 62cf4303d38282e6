package main

import "testing"

func TestInputDigests(t *testing.T) {
	hl, nv := planPrims(false, 0.01), planPrims(true, 0.01)
	if hl.ops() != nv.ops() || hl.warm != nv.warm {
		t.Fatalf("prims and naive_coloc are sized differently: %+v vs %+v", hl, nv)
	}
	a := genPrimOps(1, hl.warm+hl.ops())
	if b := genPrimOps(1, nv.warm+nv.ops()); a.digest != b.digest {
		t.Errorf("prims and naive_coloc see different streams: %s vs %s", a.digest, b.digest)
	}
	if b := genPrimOps(2, hl.warm+hl.ops()); a.digest == b.digest {
		t.Errorf("seeds 1 and 2 share digest %s", a.digest)
	}
	kinds := [4]int{}
	for _, o := range a.ops {
		kinds[o.kind]++
	}
	for k, share := range []float64{0.5, 0.2, 0.2, 0.1} {
		if got := float64(kinds[k]) / float64(len(a.ops)); got < share-0.05 || got > share+0.05 {
			t.Errorf("kind %d makes up %.3f of the stream, want ~%.1f", k, got, share)
		}
	}

	k1, k1b, k2 := genKVOps(1, 5000, 200), genKVOps(1, 5000, 200), genKVOps(2, 5000, 200)
	if k1.digest != k1b.digest || k1.digest == k2.digest {
		t.Errorf("txn_kv digests: same seed %s/%s, other seed %s", k1.digest, k1b.digest, k2.digest)
	}
	if servedDigest(1, 1) != servedDigest(1, 1) || servedDigest(1, 1) == servedDigest(2, 1) {
		t.Error("served digest does not follow the seed")
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	in := genKVOps(3, 20000, 1000)
	hits := make([]int, 1000)
	for _, o := range in.ops {
		if o.kind != kvTxn {
			hits[o.key]++
		}
	}
	if hits[0] <= 5*hits[99] || hits[0] == 0 {
		t.Errorf("rank 0 drawn %d times, rank 99 %d: not zipfian", hits[0], hits[99])
	}
}
