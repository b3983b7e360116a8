package aodv

import (
	"encoding/hex"
	"testing"
	"time"

	"mccls/internal/routing"
)

// TestEncodingBytesPinned pins the canonical encoding of every AODV control
// packet, byte for byte. The expected strings were produced by the encoders
// as they stood at commit 91f1d1f, before they were rewritten: these bytes are
// what gets signed, so a change here changes every authenticated figure.
func TestEncodingBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  routing.Packet
		want string
	}{
		{"RREQ", &RREQ{ID: 0x01020304, Origin: 7, OriginSeq: 0xa0b0c0d0, Dest: 499, DestSeq: 65537, SeqKnown: true, HopCount: 3, TTL: 12, HopAuth: routing.HopAuth{Sender: 258, Auth: []byte{9}}},
			"010102030400000007a0b0c0d0000001f30001000101000000030000000c00000102"},
		{"RREQ unknown seq, negative origin", &RREQ{ID: 1, Origin: -1, Dest: 2, TTL: 2},
			"0100000001ffffffff00000000000000020000000000000000000000000200000000"},
		{"RREP", &RREP{Origin: 7, Dest: 499, DestSeq: 0xdeadbeef, HopCount: 4, Lifetime: 6*time.Second + 700*time.Microsecond, HopAuth: routing.HopAuth{Sender: 19, Auth: []byte{9}}},
			"0200000007000001f3deadbeef000000040000177000000013"},
		{"RERR", &RERR{Unreachable: []UnreachableDest{{Dest: 5, DestSeq: 0x11223344}, {Dest: 300, DestSeq: 2}}, HopAuth: routing.HopAuth{Sender: 17, Auth: []byte{9}}},
			"030000000200000005112233440000012c0000000200000011"},
		{"RERR empty", &RERR{HopAuth: routing.HopAuth{Sender: 3}}, "030000000000000003"},
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
