package bgp

import (
	"testing"
	"testing/quick"

	"routeconv/internal/routing"
)

func pathsEq(a, b []routing.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestUpdateRoundTripAnnouncement(t *testing.T) {
	u := &Update{Dst: 9, Path: []routing.NodeID{3, 5, 9}}
	got, err := DecodeUpdate(u.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != u.Dst || !pathsEq(got.Path, u.Path) || len(got.Withdrawn) != 0 {
		t.Errorf("round trip = %+v, want %+v", got, u)
	}
}

func TestUpdateRoundTripWithdrawal(t *testing.T) {
	u := &Update{Withdrawn: []routing.NodeID{1, 2, 40}}
	got, err := DecodeUpdate(u.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Path != nil || !pathsEq(got.Withdrawn, u.Withdrawn) {
		t.Errorf("round trip = %+v, want %+v", got, u)
	}
}

func TestUpdateRoundTripMixed(t *testing.T) {
	u := &Update{Withdrawn: []routing.NodeID{7}, Dst: 9, Path: []routing.NodeID{3, 9}}
	got, err := DecodeUpdate(u.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !pathsEq(got.Withdrawn, u.Withdrawn) || got.Dst != u.Dst || !pathsEq(got.Path, u.Path) {
		t.Errorf("round trip = %+v, want %+v", got, u)
	}
}

// longPath returns a hops-long path ending at destination 9, with AS
// numbers large enough that every byte of each AS is in use.
func longPath(hops int) []routing.NodeID {
	path := make([]routing.NodeID, hops)
	for i := range path {
		path[i] = routing.NodeID(0x01020300 + i)
	}
	path[hops-1] = 9
	return path
}

// Paths of 64 hops and more need the Extended Length flag (the AS_PATH
// attribute passes 255 bytes) and, past 255 hops, more than one AS_SEQUENCE
// segment. Both used to wrap a one-byte field and produce a malformed
// UPDATE.
func TestUpdateRoundTripLongPaths(t *testing.T) {
	for _, hops := range []int{63, 64, 255, 256, 300} {
		u := &Update{Withdrawn: []routing.NodeID{7}, Dst: 9, Path: longPath(hops)}
		got, err := DecodeUpdate(u.Encode())
		if err != nil {
			t.Errorf("%d hops: %v", hops, err)
			continue
		}
		if got.Dst != u.Dst || !pathsEq(got.Path, u.Path) || !pathsEq(got.Withdrawn, u.Withdrawn) {
			t.Errorf("%d hops: round trip changed the update", hops)
		}
	}
}

// TestWireSizeModel pins the analytic size model to the actual encoding:
// SizeBytes = len(Encode()) + TCP/IP overhead.
func TestWireSizeModel(t *testing.T) {
	cases := []*Update{
		{Withdrawn: []routing.NodeID{1}},
		{Withdrawn: []routing.NodeID{1, 2, 3, 4}},
		{Dst: 9, Path: []routing.NodeID{1, 9}},
		{Dst: 9, Path: []routing.NodeID{1, 2, 3, 4, 5, 6, 9}},
		{Withdrawn: []routing.NodeID{8}, Dst: 9, Path: []routing.NodeID{1, 9}},
		{Dst: 9, Path: longPath(63)},
		{Dst: 9, Path: longPath(64)},
		{Dst: 9, Path: longPath(255)},
		{Dst: 9, Path: longPath(256)},
		{Dst: 9, Path: longPath(300)},
		{Dst: 9, Path: longPath(511)},
	}
	for _, u := range cases {
		if got, want := u.SizeBytes(), len(u.Encode())+TCPIPOverhead; got != want {
			t.Errorf("%+v: SizeBytes = %d, encoded+overhead = %d", u, got, want)
		}
	}
}

func TestDecodeUpdateErrors(t *testing.T) {
	good := (&Update{Dst: 9, Path: []routing.NodeID{1, 9}}).Encode()

	short := good[:5]
	badLen := append([]byte{}, good...)
	badLen[16] = 0xFF
	badType := append([]byte{}, good...)
	badType[18] = 9
	truncated := good[:len(good)-3]

	for name, buf := range map[string][]byte{
		"too short":  short,
		"bad length": badLen,
		"bad type":   badType,
		"truncated":  truncated,
	} {
		if _, err := DecodeUpdate(buf); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// Property: updates round-trip losslessly.
func TestPropertyUpdateRoundTrip(t *testing.T) {
	f := func(withdrawn []uint8, path []uint8, dst uint8, announce bool) bool {
		u := &Update{}
		for _, w := range withdrawn {
			u.Withdrawn = append(u.Withdrawn, routing.NodeID(w))
		}
		if announce {
			u.Dst = routing.NodeID(dst)
			u.Path = []routing.NodeID{routing.NodeID(dst) + 1} // non-empty
			for _, h := range path {
				u.Path = append(u.Path, routing.NodeID(h))
			}
		}
		got, err := DecodeUpdate(u.Encode())
		if err != nil {
			return false
		}
		if !pathsEq(got.Withdrawn, u.Withdrawn) || !pathsEq(got.Path, u.Path) {
			return false
		}
		if announce && got.Dst != u.Dst {
			return false
		}
		return got.SizeBytes() == u.SizeBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
