package dsr

import (
	"encoding/hex"
	"testing"

	"mccls/internal/routing"
)

// TestEncodingBytesPinned pins the canonical encoding of every DSR control
// packet, byte for byte. The expected strings were produced by the encoders
// as they stood at commit 91f1d1f, before they were rewritten: these bytes are
// what gets signed, so a change here changes every authenticated figure.
func TestEncodingBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  routing.Packet
		want string
	}{
		{"RouteRequest", &RouteRequest{ID: 0x01020304, Origin: 7, Target: 499, Route: []int{7, 258, 3}, TTL: 12, HopAuth: routing.HopAuth{Sender: 3, Auth: []byte{9}}},
			"0b0102030400000007000001f3000000030000000700000102000000030000000c00000003"},
		{"RouteRequest empty route, negative target", &RouteRequest{ID: 0xfffffffe, Origin: 1, Target: -1, TTL: 1, HopAuth: routing.HopAuth{Sender: 1}},
			"0bfffffffe00000001ffffffff000000000000000100000001"},
		{"RouteReply", &RouteReply{Route: []int{7, 258, 3, 499}, HopAuth: routing.HopAuth{Sender: 258, Auth: []byte{9}}},
			"0c00000004000000070000010200000003000001f300000102"},
		{"RouteError", &RouteError{From: 258, To: 3, HopAuth: routing.HopAuth{Sender: 258, Auth: []byte{9}}}, "0d000001020000000300000102"},
	} {
		got := tc.msg.AppendEncode(nil)
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("%s: encoding %x, want %s", tc.name, got, tc.want)
		}
		// Into a buffer that has held it once — the agent's scratch — it
		// allocates nothing.
		if allocs := testing.AllocsPerRun(10, func() { got = tc.msg.AppendEncode(got[:0]) }); allocs != 0 {
			t.Errorf("%s: re-encoding into its own buffer allocates %.0f times, want 0", tc.name, allocs)
		}
		if with := tc.msg.AppendEncode([]byte("xy")); string(with) != "xy"+string(got) {
			t.Errorf("%s: AppendEncode(prefix) = %x", tc.name, with)
		}
	}
}
