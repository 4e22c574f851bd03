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
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// initialSalt is the QUIC v1 initial salt (RFC 9001 §5.2).
var initialSalt = []byte{
	0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3, 0x4d, 0x17,
	0x9a, 0xe6, 0xa4, 0xc8, 0x0c, 0xad, 0xcc, 0xbb, 0x7f, 0x0a,
}

// HKDFExtract implements HKDF-Extract with SHA-256.
func HKDFExtract(salt, ikm []byte) []byte {
	h := hmac.New(sha256.New, salt)
	h.Write(ikm)
	return h.Sum(nil)
}

// HKDFExpand implements HKDF-Expand with SHA-256. RFC 5869 §2.3 caps the
// output at 255 hash blocks; a longer length panics.
func HKDFExpand(prk, info []byte, length int) []byte {
	if length > 255*sha256.Size {
		panic(fmt.Sprintf("quiccrypto: HKDF-Expand length %d exceeds %d", length, 255*sha256.Size))
	}
	h := hmac.New(sha256.New, prk)
	out := make([]byte, 0, length+sha256.Size)
	for counter := byte(1); len(out) < length; counter++ {
		h.Reset()
		if len(out) > 0 {
			h.Write(out[len(out)-sha256.Size:])
		}
		h.Write(info)
		h.Write([]byte{counter})
		out = h.Sum(out)
	}
	return out[:length]
}

// hkdfLabel builds the TLS 1.3 HkdfLabel structure with an empty context.
func hkdfLabel(label string, length int) []byte {
	full := "tls13 " + label
	info := make([]byte, 0, 5+len(full))
	info = binary.BigEndian.AppendUint16(info, uint16(length))
	info = append(info, byte(len(full)))
	info = append(info, full...)
	return append(info, 0) // empty context
}

// HKDFExpandLabel implements the TLS 1.3 HkdfLabel expansion used by QUIC.
func HKDFExpandLabel(secret []byte, label string, length int) []byte {
	return HKDFExpand(secret, hkdfLabel(label, length), length)
}

// quicLabels are the "quic key", "quic iv" and "quic hp" HkdfLabels of
// RFC 9001 §5.1, each followed by HKDF-Expand's first block counter: every
// output fits in one SHA-256 block, so T(1) is the whole expansion.
var quicLabels = [3][]byte{
	append(hkdfLabel("quic key", 16), 1),
	append(hkdfLabel("quic iv", 12), 1),
	append(hkdfLabel("quic hp", 16), 1),
}

// Keys holds one direction's packet protection material. It is immutable
// once built and safe for concurrent use.
type Keys struct {
	aead cipher.AEAD
	iv   []byte
	hp   cipher.Block // header protection cipher
}

// NewKeys derives AEAD and header-protection keys from a traffic secret
// (RFC 9001 §5.1). One HMAC keyed with the secret serves all three labels.
func NewKeys(secret []byte) *Keys {
	mac := hmac.New(sha256.New, secret)
	out := make([]byte, 0, len(quicLabels)*sha256.Size)
	for _, info := range quicLabels {
		mac.Reset()
		mac.Write(info)
		out = mac.Sum(out)
	}
	const iv, hp = sha256.Size, 2 * sha256.Size
	return &Keys{
		aead: must(cipher.NewGCM(must(aes.NewCipher(out[:16])))),
		iv:   out[iv : iv+12],
		hp:   must(aes.NewCipher(out[hp : hp+16])),
	}
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
	initial := HKDFExtract(initialSalt, dcid)
	client = HKDFExpandLabel(initial, "client in", 32)
	server = HKDFExpandLabel(initial, "server in", 32)
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

// nonce computes the per-packet AEAD nonce: IV XOR packet number.
func (k *Keys) nonce(pn uint64) []byte {
	n := make([]byte, 12)
	copy(n, k.iv)
	for i := 0; i < 8; i++ {
		n[11-i] ^= byte(pn >> (8 * i))
	}
	return n
}

// Overhead returns the AEAD tag length added to sealed payloads.
func (k *Keys) Overhead() int { return k.aead.Overhead() }

// Seal encrypts payload with the packet number and associated data (the
// packet header through the packet number field).
func (k *Keys) Seal(payload []byte, pn uint64, ad []byte) []byte {
	return k.aead.Seal(nil, k.nonce(pn), payload, ad)
}

// ErrDecrypt is returned when packet protection removal fails.
var ErrDecrypt = errors.New("quiccrypto: payload authentication failed")

// Open decrypts a sealed payload.
func (k *Keys) Open(sealed []byte, pn uint64, ad []byte) ([]byte, error) {
	out, err := k.aead.Open(nil, k.nonce(pn), sealed, ad)
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
func (k *Keys) ProtectHeader(packet []byte, pnOffset int) error {
	sampleStart := pnOffset + 4
	if sampleStart+16 > len(packet) {
		return fmt.Errorf("quiccrypto: packet too short for header protection sample")
	}
	mask := make([]byte, aes.BlockSize)
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
func (k *Keys) UnprotectHeader(packet []byte, pnOffset int) error {
	return k.ProtectHeader(packet, pnOffset) // XOR is symmetric
}

// HandshakeSecrets derives per-direction handshake traffic secrets from the
// client and server hello randoms (the simplified TLS layer's stand-in for
// the TLS 1.3 handshake secret; see the package comment).
func HandshakeSecrets(clientRandom, serverRandom []byte) (client, server []byte) {
	master := HKDFExtract(clientRandom, serverRandom)
	client = HKDFExpandLabel(master, "c hs traffic", 32)
	server = HKDFExpandLabel(master, "s hs traffic", 32)
	return client, server
}

// AppSecrets derives per-direction 1-RTT application traffic secrets.
func AppSecrets(clientRandom, serverRandom []byte) (client, server []byte) {
	master := HKDFExtract(clientRandom, serverRandom)
	client = HKDFExpandLabel(master, "c ap traffic", 32)
	server = HKDFExpandLabel(master, "s ap traffic", 32)
	return client, server
}

// ResetToken derives the 16-byte stateless reset token for a connection ID
// under a static endpoint key (RFC 9000 §10.3.2 recommends a keyed
// pseudorandom function of the CID).
func ResetToken(staticKey, cid []byte) [16]byte {
	h := hmac.New(sha256.New, staticKey)
	h.Write(cid)
	var token [16]byte
	copy(token[:], h.Sum(nil))
	return token
}

// RetryTag computes the Retry pseudo-integrity tag binding a retry token to
// the original DCID (a keyed MAC standing in for the AES-GCM retry tag of
// RFC 9001 §5.8; same binding role, simpler construction).
func RetryTag(staticKey, odcid, token []byte) [16]byte {
	h := hmac.New(sha256.New, staticKey)
	h.Write([]byte{byte(len(odcid))})
	h.Write(odcid)
	h.Write(token)
	var tag [16]byte
	copy(tag[:], h.Sum(nil))
	return tag
}
