package bgp

import (
	"testing"

	"routeconv/internal/routing"
)

// FuzzDecodeUpdate checks that the BGP decoder never panics on arbitrary
// input and that accepted messages round-trip.
func FuzzDecodeUpdate(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Update{Withdrawn: []routing.NodeID{1, 2}}).Encode())
	f.Add((&Update{Dst: 9, Path: []routing.NodeID{3, 5, 9}}).Encode())
	f.Add((&Update{Withdrawn: []routing.NodeID{7}, Dst: 9, Path: []routing.NodeID{3, 9}}).Encode())
	f.Add((&Update{Dst: 9, Path: longPath(64)}).Encode()) // Extended Length AS_PATH
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeUpdate(data)
		if err != nil {
			return
		}
		again, err := DecodeUpdate(u.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !pathsEq(again.Withdrawn, u.Withdrawn) || !pathsEq(again.Path, u.Path) {
			t.Fatalf("round trip changed: %+v → %+v", u, again)
		}
	})
}
