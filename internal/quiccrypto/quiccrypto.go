// Package quiccrypto implements QUIC packet protection: HKDF key derivation
// (RFC 5869 via HMAC-SHA256), the QUIC v1 initial-secret schedule (RFC 9001
// §5.2), AES-128-GCM payload protection with packet-number nonces, and
// AES-based header protection (RFC 9001 §5.4). InitialKeys and SessionKeys
// keep each connection's key schedule in a bounded process-wide table, so
// the two endpoints of a connection share one derivation.
//
// The TLS layer is simplified (see DESIGN.md): instead of a full TLS 1.3
// handshake, CRYPTO frames carry toy hello messages whose random values
// seed the handshake and 1-RTT secrets. The derivation, AEAD, and header
// protection code paths are the real algorithms.
package quiccrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// initialSalt is the QUIC v1 initial salt (RFC 9001 §5.2).
var initialSalt = []byte{
	0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3, 0x4d, 0x17,
	0x9a, 0xe6, 0xa4, 0xc8, 0x0c, 0xad, 0xcc, 0xbb, 0x7f, 0x0a,
}

// macStack is the longest message MAC hashes in its stack buffer; longer
// messages take one heap buffer.
const macStack = 256

// MAC returns HMAC-SHA256 (RFC 2104) of the concatenation of msg under
// key. It hashes with sha256.Sum256 over a stack buffer, so the packet
// path allocates nothing: a key longer than one block is hashed first
// (RFC 2104 §2), and only a message longer than macStack bytes in total
// takes a heap buffer.
func MAC(key []byte, msg ...[]byte) [sha256.Size]byte {
	const block = sha256.BlockSize
	if len(key) > block {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	n := 0
	for _, m := range msg {
		n += len(m)
	}
	var stack [block + macStack]byte
	buf := stack[:block]
	if n > macStack {
		buf = make([]byte, block, block+n)
	}
	copy(buf, key)
	for i := range buf {
		buf[i] ^= 0x36 // ipad
	}
	for _, m := range msg {
		buf = append(buf, m...)
	}
	inner := sha256.Sum256(buf)
	buf = buf[:block]
	for i := range buf {
		buf[i] ^= 0x36 ^ 0x5c // ipad to opad
	}
	return sha256.Sum256(append(buf, inner[:]...))
}

// HKDFExtract implements HKDF-Extract with SHA-256.
func HKDFExtract(salt, ikm []byte) []byte {
	prk := MAC(salt, ikm)
	return prk[:]
}

// HKDFExpand implements HKDF-Expand with SHA-256. RFC 5869 §2.3 caps the
// output at 255 hash blocks; a longer length panics.
func HKDFExpand(prk, info []byte, length int) []byte {
	if length > 255*sha256.Size {
		panic(fmt.Sprintf("quiccrypto: HKDF-Expand length %d exceeds %d", length, 255*sha256.Size))
	}
	out := make([]byte, 0, length+sha256.Size)
	var prev []byte
	for counter := byte(1); len(out) < length; counter++ {
		t := MAC(prk, prev, info, []byte{counter})
		out = append(out, t[:]...)
		prev = out[len(out)-sha256.Size:]
	}
	return out[:length]
}

// appendHkdfLabel appends the TLS 1.3 HkdfLabel structure with an empty
// context to b.
func appendHkdfLabel(b []byte, label string, length int) []byte {
	const prefix = "tls13 "
	b = binary.BigEndian.AppendUint16(b, uint16(length))
	b = append(b, byte(len(prefix)+len(label)))
	b = append(append(b, prefix...), label...)
	return append(b, 0) // empty context
}

// HKDFExpandLabel implements the TLS 1.3 HkdfLabel expansion used by QUIC.
func HKDFExpandLabel(secret []byte, label string, length int) []byte {
	var buf [64]byte // keeps a short label off the heap
	return HKDFExpand(secret, appendHkdfLabel(buf[:0], label, length), length)
}

// quicLabels are the "quic key", "quic iv" and "quic hp" HkdfLabels of
// RFC 9001 §5.1, each followed by HKDF-Expand's first block counter: every
// output fits in one SHA-256 block, so T(1) is the whole expansion.
var quicLabels = [3][]byte{
	append(appendHkdfLabel(nil, "quic key", 16), 1),
	append(appendHkdfLabel(nil, "quic iv", 12), 1),
	append(appendHkdfLabel(nil, "quic hp", 16), 1),
}

// Keys holds one direction's packet protection material. It is immutable
// once built and safe for concurrent use: the key table shares one Keys
// between both endpoints of a connection, and each endpoint brings its own
// Scratch.
type Keys struct {
	aead cipher.AEAD
	iv   [12]byte
	hp   cipher.Block // header protection cipher
}

// Scratch is one endpoint's working space for packet protection: the
// per-packet nonce and the header-protection mask. The AEAD and the
// header-protection cipher sit behind interfaces, so buffers handed to
// them escape; keeping them in the endpoint's long-lived Scratch makes
// that escape free. A Scratch serves one goroutine at a time.
type Scratch struct {
	nonce [12]byte
	mask  [aes.BlockSize]byte
}

// NewKeys derives AEAD and header-protection keys from a traffic secret
// (RFC 9001 §5.1).
func NewKeys(secret []byte) *Keys {
	key, iv, hp := MAC(secret, quicLabels[0]), MAC(secret, quicLabels[1]), MAC(secret, quicLabels[2])
	k := &Keys{
		aead: must(cipher.NewGCM(must(aes.NewCipher(key[:16])))),
		hp:   must(aes.NewCipher(hp[:16])),
	}
	copy(k.iv[:], iv[:])
	return k
}

// must unwraps the AES and GCM constructors, which cannot fail on the
// 16-byte keys NewKeys derives.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("quiccrypto: %v", err))
	}
	return v
}

// InitialSecrets derives the client and server initial traffic secrets from
// the client's first destination connection ID (RFC 9001 §5.2).
func InitialSecrets(dcid []byte) (client, server []byte) {
	initial := MAC(initialSalt, dcid) // HKDF-Extract
	client = HKDFExpandLabel(initial[:], "client in", 32)
	server = HKDFExpandLabel(initial[:], "server in", 32)
	return client, server
}

// Pair holds both directions' keys for one packet number space.
type Pair struct{ Client, Server *Keys }

// keyTableSize bounds the process-wide key table. A connection's two
// endpoints look its keys up moments apart, so the table only has to hold
// the connections in flight; a full table is cleared.
const keyTableSize = 256

// The key table memoises InitialKeys and SessionKeys by their full input
// bytes. Both are pure functions, so the reference client and the
// simulated server of one connection share a single derivation.
var (
	tableMu  sync.Mutex
	keyTable = make(map[string][2]Pair, keyTableSize)
)

// lookupKeys returns the table entry for key, deriving it on a miss. The
// derivation runs outside the lock; racing misses store equal keys.
func lookupKeys(key []byte, derive func() [2]Pair) [2]Pair {
	tableMu.Lock()
	v, ok := keyTable[string(key)]
	tableMu.Unlock()
	if ok {
		return v
	}
	v = derive()
	tableMu.Lock()
	if len(keyTable) >= keyTableSize {
		clear(keyTable)
	}
	keyTable[string(key)] = v
	tableMu.Unlock()
	return v
}

// InitialKeys returns both directions' Initial keys for the client's first
// destination connection ID.
func InitialKeys(dcid []byte) Pair {
	var buf [64]byte // keeps the table key of a hit off the heap
	key := append(append(buf[:0], 'i'), dcid...)
	return lookupKeys(key, func() [2]Pair {
		client, server := InitialSecrets(dcid)
		return [2]Pair{{NewKeys(client), NewKeys(server)}}
	})[0]
}

// SessionKeys returns both directions' handshake and 1-RTT keys for a
// client hello and a server random. The table key length-prefixes the
// hello, so two different input pairs never share an entry.
func SessionKeys(clientHello, serverRandom []byte) (handshake, app Pair) {
	var buf [128]byte // keeps the table key of a hit off the heap
	key := binary.BigEndian.AppendUint32(append(buf[:0], 's'), uint32(len(clientHello)))
	key = append(append(key, clientHello...), serverRandom...)
	v := lookupKeys(key, func() [2]Pair {
		hc, hs := HandshakeSecrets(clientHello, serverRandom)
		ac, as := AppSecrets(clientHello, serverRandom)
		return [2]Pair{{NewKeys(hc), NewKeys(hs)}, {NewKeys(ac), NewKeys(as)}}
	})
	return v[0], v[1]
}

// nonce computes the per-packet AEAD nonce, IV XOR packet number, into
// the endpoint's scratch.
func (k *Keys) nonce(sc *Scratch, pn uint64) []byte {
	n := sc.nonce[:]
	copy(n, k.iv[:])
	for i := 0; i < 8; i++ {
		n[11-i] ^= byte(pn >> (8 * i))
	}
	return n
}

// Overhead returns the AEAD tag length added to sealed payloads.
func (k *Keys) Overhead() int { return k.aead.Overhead() }

// Seal encrypts payload with the packet number and associated data (the
// packet header through the packet number field) and appends the result
// to dst. Pass payload[:0] as dst to seal in place.
func (k *Keys) Seal(sc *Scratch, dst, payload []byte, pn uint64, ad []byte) []byte {
	return k.aead.Seal(dst, k.nonce(sc, pn), payload, ad)
}

// ErrDecrypt is returned when packet protection removal fails.
var ErrDecrypt = errors.New("quiccrypto: payload authentication failed")

var errShortSample = errors.New("quiccrypto: packet too short for header protection sample")

// Open decrypts a sealed payload and appends the plaintext to dst. Pass
// sealed[:0] as dst to open in place.
func (k *Keys) Open(sc *Scratch, dst, sealed []byte, pn uint64, ad []byte) ([]byte, error) {
	out, err := k.aead.Open(dst, k.nonce(sc, pn), sealed, ad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return out, nil
}

// pnLen is the fixed packet number length used on the wire (quicwire emits
// the 4-byte maximum encoding).
const pnLen = 4

// ProtectHeader applies header protection in place: packet[pnOffset:] must
// start with the 4-byte packet number followed by the sealed payload, from
// which the sample is taken (RFC 9001 §5.4.2: sample begins 4 bytes past
// the start of the packet number).
func (k *Keys) ProtectHeader(sc *Scratch, packet []byte, pnOffset int) error {
	sampleStart := pnOffset + 4
	if sampleStart+16 > len(packet) {
		return errShortSample
	}
	mask := sc.mask[:]
	k.hp.Encrypt(mask, packet[sampleStart:sampleStart+16])
	if packet[0]&0x80 != 0 {
		packet[0] ^= mask[0] & 0x0F
	} else {
		packet[0] ^= mask[0] & 0x1F
	}
	for i := 0; i < pnLen; i++ {
		packet[pnOffset+i] ^= mask[1+i]
	}
	return nil
}

// UnprotectHeader removes header protection in place. It relies on this
// implementation's fixed 4-byte packet number encoding: the sample position
// is independent of the (protected) packet number length bits.
func (k *Keys) UnprotectHeader(sc *Scratch, packet []byte, pnOffset int) error {
	return k.ProtectHeader(sc, packet, pnOffset) // XOR is symmetric
}

// SealPacket protects a packet built in place: packet holds the header
// through the 4-byte packet number at pnOffset, then the plaintext
// payload. The payload is sealed in place under the header as associated
// data and the tag appended (packet grows only if its capacity is short
// of Overhead); then header protection is applied.
func (k *Keys) SealPacket(sc *Scratch, packet []byte, pnOffset int, pn uint64) []byte {
	hdr := pnOffset + pnLen
	packet = slices.Grow(packet, k.Overhead())
	sealed := k.Seal(sc, packet[hdr:hdr], packet[hdr:], pn, packet[:hdr])
	packet = packet[:hdr+len(sealed)]
	// Cannot fail: the 16-byte sample starts right after the packet
	// number, and the tag alone covers it.
	_ = k.ProtectHeader(sc, packet, pnOffset)
	return packet
}

// OpenPacket removes header and packet protection in place from packet,
// which runs from the first header byte to the end of the sealed payload.
// It returns the packet number and the plaintext payload, which aliases
// packet.
func (k *Keys) OpenPacket(sc *Scratch, packet []byte, pnOffset int) (uint64, []byte, error) {
	if err := k.UnprotectHeader(sc, packet, pnOffset); err != nil {
		return 0, nil, err
	}
	hdr := pnOffset + pnLen
	pn := uint64(binary.BigEndian.Uint32(packet[pnOffset:]))
	payload, err := k.Open(sc, packet[hdr:hdr], packet[hdr:], pn, packet[:hdr])
	return pn, payload, err
}

// HandshakeSecrets derives per-direction handshake traffic secrets from the
// client and server hello randoms (the simplified TLS layer's stand-in for
// the TLS 1.3 handshake secret; see the package comment).
func HandshakeSecrets(clientRandom, serverRandom []byte) (client, server []byte) {
	master := MAC(clientRandom, serverRandom) // HKDF-Extract
	client = HKDFExpandLabel(master[:], "c hs traffic", 32)
	server = HKDFExpandLabel(master[:], "s hs traffic", 32)
	return client, server
}

// AppSecrets derives per-direction 1-RTT application traffic secrets.
func AppSecrets(clientRandom, serverRandom []byte) (client, server []byte) {
	master := MAC(clientRandom, serverRandom) // HKDF-Extract
	client = HKDFExpandLabel(master[:], "c ap traffic", 32)
	server = HKDFExpandLabel(master[:], "s ap traffic", 32)
	return client, server
}

// ResetToken derives the 16-byte stateless reset token for a connection ID
// under a static endpoint key (RFC 9000 §10.3.2 recommends a keyed
// pseudorandom function of the CID).
func ResetToken(staticKey, cid []byte) (token [16]byte) {
	sum := MAC(staticKey, cid)
	copy(token[:], sum[:])
	return token
}

// RetryTag computes the Retry pseudo-integrity tag binding a retry token to
// the original DCID (a keyed MAC standing in for the AES-GCM retry tag of
// RFC 9001 §5.8; same binding role, simpler construction).
func RetryTag(staticKey, odcid, token []byte) (tag [16]byte) {
	sum := MAC(staticKey, []byte{byte(len(odcid))}, odcid, token)
	copy(tag[:], sum[:])
	return tag
}
