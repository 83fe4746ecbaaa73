package bgp

import (
	"encoding/binary"
	"fmt"

	"routeconv/internal/routing"
)

// Wire format (RFC 4271 shape, with 4-byte AS numbers and /32 NLRI):
//
//	header:    16-byte marker, 2-byte length, 1-byte type (UPDATE = 2)
//	withdrawn: 2-byte length, then per route 1-byte prefix length + 4 bytes
//	attrs:     2-byte length, then ORIGIN (4 bytes) and AS_PATH
//	           (3-byte attribute header, then per AS_SEQUENCE segment a
//	           1-byte segment type, 1-byte count and 4 bytes per AS) when
//	           a route is announced
//	nlri:      1-byte prefix length + 4 bytes
//
// As RFC 4271 requires, a segment holds at most 255 ASes, so longer paths
// split into several segments, and an attribute over 255 bytes sets the
// Extended Length flag and carries a 2-byte length (a 4-byte header). Both
// start at 64 hops; shorter paths are one segment with a 1-byte length.
//
// The Update size model (headerBytes etc.) matches this encoding plus
// 40 bytes of TCP/IP framing; TestWireSizeModel pins that.
const (
	bgpMarkerLen  = 16
	bgpHeaderLen  = bgpMarkerLen + 2 + 1
	bgpTypeUpdate = 2

	attrOrigin = 1
	attrASPath = 2

	asPathSegSequence = 2
	// maxSegASes is the most ASes one AS_PATH segment can count.
	maxSegASes = 255

	attrFlagTransitive = 0x40
	attrFlagExtLen     = 0x10

	// TCPIPOverhead is the transport framing a BGP message rides in.
	TCPIPOverhead = 40
)

// asPathAttrLen returns the AS_PATH attribute's value length in bytes: a
// type and a count byte per segment of up to 255 ASes, and 4 bytes per AS.
// An empty path is still one (empty) segment.
func asPathAttrLen(hops int) int {
	segments := max(1, (hops+maxSegASes-1)/maxSegASes)
	return 2*segments + 4*hops
}

// asPathExtraBytes is what a path's AS_PATH costs beyond the one-segment,
// 1-byte-length form the size model's constants assume. It is 0 below 64
// hops.
func asPathExtraBytes(hops int) int {
	attrLen := asPathAttrLen(hops)
	extra := attrLen - (2 + 4*hops) // segments after the first
	if attrLen > 255 {
		extra++ // the Extended Length flag's second length byte
	}
	return extra
}

func addrForNode(id routing.NodeID) uint32 { return 0x0A00_0000 | uint32(id)&0x00FF_FFFF }
func nodeForAddr(addr uint32) routing.NodeID {
	return routing.NodeID(addr & 0x00FF_FFFF)
}

// Encode renders the update as a BGP UPDATE message.
func (u *Update) Encode() []byte {
	withdrawn := make([]byte, 0, 5*len(u.Withdrawn))
	for _, dst := range u.Withdrawn {
		var route [5]byte
		route[0] = 32
		binary.BigEndian.PutUint32(route[1:], addrForNode(dst))
		withdrawn = append(withdrawn, route[:]...)
	}

	var attrs, nlri []byte
	if u.Path != nil {
		attrLen := asPathAttrLen(len(u.Path))
		attrs = make([]byte, 0, 8+attrLen)
		// ORIGIN: flags(transitive), type, length, value(IGP).
		attrs = append(attrs, attrFlagTransitive, attrOrigin, 1, 0)
		// AS_PATH: flags, type, length, then AS_SEQUENCE segments.
		if attrLen > 255 {
			attrs = append(attrs, attrFlagTransitive|attrFlagExtLen, attrASPath)
			attrs = binary.BigEndian.AppendUint16(attrs, uint16(attrLen))
		} else {
			attrs = append(attrs, attrFlagTransitive, attrASPath, byte(attrLen))
		}
		for path := u.Path; ; {
			seg := path[:min(len(path), maxSegASes)]
			attrs = append(attrs, asPathSegSequence, byte(len(seg)))
			for _, as := range seg {
				attrs = binary.BigEndian.AppendUint32(attrs, uint32(as))
			}
			if path = path[len(seg):]; len(path) == 0 {
				break
			}
		}
		nlri = make([]byte, 5)
		nlri[0] = 32
		binary.BigEndian.PutUint32(nlri[1:], addrForNode(u.Dst))
	}

	total := bgpHeaderLen + 2 + len(withdrawn) + 2 + len(attrs) + len(nlri)
	buf := make([]byte, 0, total)
	var header [bgpHeaderLen]byte
	for i := 0; i < bgpMarkerLen; i++ {
		header[i] = 0xFF
	}
	binary.BigEndian.PutUint16(header[bgpMarkerLen:], uint16(total))
	header[bgpMarkerLen+2] = bgpTypeUpdate
	buf = append(buf, header[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(withdrawn)))
	buf = append(buf, withdrawn...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(attrs)))
	buf = append(buf, attrs...)
	buf = append(buf, nlri...)
	return buf
}

// DecodeUpdate parses a BGP UPDATE message produced by Encode.
func DecodeUpdate(buf []byte) (*Update, error) {
	if len(buf) < bgpHeaderLen+4 {
		return nil, fmt.Errorf("bgp: message too short (%d bytes)", len(buf))
	}
	if got := binary.BigEndian.Uint16(buf[bgpMarkerLen:]); int(got) != len(buf) {
		return nil, fmt.Errorf("bgp: length field %d ≠ buffer length %d", got, len(buf))
	}
	if buf[bgpMarkerLen+2] != bgpTypeUpdate {
		return nil, fmt.Errorf("bgp: unsupported message type %d", buf[bgpMarkerLen+2])
	}
	rest := buf[bgpHeaderLen:]

	wdLen := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if wdLen > len(rest) || wdLen%5 != 0 {
		return nil, fmt.Errorf("bgp: bad withdrawn length %d", wdLen)
	}
	u := &Update{}
	for off := 0; off < wdLen; off += 5 {
		if rest[off] != 32 {
			return nil, fmt.Errorf("bgp: unsupported prefix length %d", rest[off])
		}
		u.Withdrawn = append(u.Withdrawn, nodeForAddr(binary.BigEndian.Uint32(rest[off+1:])))
	}
	rest = rest[wdLen:]

	if len(rest) < 2 {
		return nil, fmt.Errorf("bgp: truncated attribute length")
	}
	attrLen := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if attrLen > len(rest) {
		return nil, fmt.Errorf("bgp: attribute length %d exceeds remainder %d", attrLen, len(rest))
	}
	attrs, nlri := rest[:attrLen], rest[attrLen:]

	var path []routing.NodeID
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return nil, fmt.Errorf("bgp: truncated attribute header")
		}
		typ, alen, body := attrs[1], int(attrs[2]), attrs[3:]
		if attrs[0]&attrFlagExtLen != 0 {
			if len(attrs) < 4 {
				return nil, fmt.Errorf("bgp: truncated attribute header")
			}
			alen, body = int(binary.BigEndian.Uint16(attrs[2:])), attrs[4:]
		}
		if alen > len(body) {
			return nil, fmt.Errorf("bgp: attribute %d length %d exceeds remainder", typ, alen)
		}
		if typ == attrASPath {
			if alen < 2 {
				return nil, fmt.Errorf("bgp: malformed AS_PATH")
			}
			for seg := body[:alen]; len(seg) > 0; {
				if len(seg) < 2 || seg[0] != asPathSegSequence {
					return nil, fmt.Errorf("bgp: malformed AS_PATH")
				}
				count := int(seg[1])
				if len(seg) < 2+4*count {
					return nil, fmt.Errorf("bgp: AS_PATH length mismatch")
				}
				for i := 0; i < count; i++ {
					path = append(path, routing.NodeID(binary.BigEndian.Uint32(seg[2+4*i:])))
				}
				seg = seg[2+4*count:]
			}
		}
		attrs = body[alen:]
	}

	switch {
	case len(nlri) == 0 && path == nil:
		// Pure withdrawal.
	case len(nlri) == 5 && path != nil:
		if nlri[0] != 32 {
			return nil, fmt.Errorf("bgp: unsupported NLRI prefix length %d", nlri[0])
		}
		u.Dst = nodeForAddr(binary.BigEndian.Uint32(nlri[1:]))
		u.Path = path
	default:
		return nil, fmt.Errorf("bgp: inconsistent NLRI (%d bytes) and AS_PATH (%d hops)", len(nlri), len(path))
	}
	return u, nil
}
