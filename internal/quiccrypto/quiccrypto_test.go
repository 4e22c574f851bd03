package quiccrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hkdf"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInitialSecretsRFC9001 checks the derivation against the published
// test vectors of RFC 9001 Appendix A.1.
func TestInitialSecretsRFC9001(t *testing.T) {
	dcid := unhex(t, "8394c8f03e515708")
	client, server := InitialSecrets(dcid)
	wantClient := unhex(t, "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea")
	wantServer := unhex(t, "3c199828fd139efd216c155ad844cc81fb82fa8d7446fa7d78be803acdda951b")
	if !bytes.Equal(client, wantClient) {
		t.Fatalf("client initial secret = %x", client)
	}
	if !bytes.Equal(server, wantServer) {
		t.Fatalf("server initial secret = %x", server)
	}
}

// TestClientInitialKeysRFC9001 checks key/iv/hp expansion against RFC 9001
// Appendix A.1.
func TestClientInitialKeysRFC9001(t *testing.T) {
	client, _ := InitialSecrets(unhex(t, "8394c8f03e515708"))
	key := HKDFExpandLabel(client, "quic key", 16)
	iv := HKDFExpandLabel(client, "quic iv", 12)
	hp := HKDFExpandLabel(client, "quic hp", 16)
	if got := hex.EncodeToString(key); got != "1f369613dd76d5467730efcbe3b1a22d" {
		t.Fatalf("quic key = %s", got)
	}
	if got := hex.EncodeToString(iv); got != "fa044b2f42a3fd3b46fb255c" {
		t.Fatalf("quic iv = %s", got)
	}
	if got := hex.EncodeToString(hp); got != "9f50449e04a0e810283a1e9933adedd2" {
		t.Fatalf("quic hp = %s", got)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	client, server := InitialSecrets([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	ck := NewKeys(client)
	sk := NewKeys(server)
	payload := []byte("crypto frame bytes")
	ad := []byte("header")
	var sc Scratch
	sealed := ck.Seal(&sc, nil, payload, 7, ad)
	if len(sealed) != len(payload)+ck.Overhead() {
		t.Fatalf("sealed length %d", len(sealed))
	}
	opened, err := ck.Open(&sc, nil, sealed, 7, ad)
	if err != nil || !bytes.Equal(opened, payload) {
		t.Fatalf("open: %v %q", err, opened)
	}
	// Wrong packet number, AD, or keys must fail.
	if _, err := ck.Open(&sc, nil, sealed, 8, ad); err == nil {
		t.Fatal("wrong pn accepted")
	}
	if _, err := ck.Open(&sc, nil, sealed, 7, []byte("other")); err == nil {
		t.Fatal("wrong AD accepted")
	}
	if _, err := sk.Open(&sc, nil, sealed, 7, ad); err == nil {
		t.Fatal("wrong direction keys accepted")
	}
}

func TestNonceVariesWithPacketNumber(t *testing.T) {
	client, _ := InitialSecrets([]byte{9})
	k := NewKeys(client)
	var sc Scratch
	if bytes.Equal(bytes.Clone(k.nonce(&sc, 1)), k.nonce(&sc, 2)) {
		t.Fatal("nonces must differ per packet number")
	}
	if len(k.nonce(&sc, 0)) != 12 {
		t.Fatal("nonce must be 12 bytes")
	}
}

func TestHeaderProtectionRoundTrip(t *testing.T) {
	client, _ := InitialSecrets([]byte{0xAB, 0xCD})
	k := NewKeys(client)
	packet := make([]byte, 64)
	for i := range packet {
		packet[i] = byte(i)
	}
	packet[0] = 0xC3 // long header
	orig := append([]byte(nil), packet...)
	pnOffset := 18
	var sc Scratch
	if err := k.ProtectHeader(&sc, packet, pnOffset); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(packet, orig) {
		t.Fatal("protection changed nothing")
	}
	// Only the first byte's low nibble and the pn bytes may change.
	if packet[0]&0xF0 != orig[0]&0xF0 {
		t.Fatal("protection touched invariant header bits")
	}
	for i := 1; i < pnOffset; i++ {
		if packet[i] != orig[i] {
			t.Fatalf("protection touched header byte %d", i)
		}
	}
	if err := k.UnprotectHeader(&sc, packet, pnOffset); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(packet, orig) {
		t.Fatal("unprotect did not restore packet")
	}
}

func TestHeaderProtectionShortSample(t *testing.T) {
	client, _ := InitialSecrets([]byte{1})
	k := NewKeys(client)
	if err := k.ProtectHeader(new(Scratch), make([]byte, 10), 2); err == nil {
		t.Fatal("short sample must error")
	}
}

func TestHandshakeAndAppSecretsDistinct(t *testing.T) {
	cr := []byte("client-random-0123456789abcdef")
	sr := []byte("server-random-0123456789abcdef")
	hc, hs := HandshakeSecrets(cr, sr)
	ac, as := AppSecrets(cr, sr)
	secrets := [][]byte{hc, hs, ac, as}
	for i := range secrets {
		for j := i + 1; j < len(secrets); j++ {
			if bytes.Equal(secrets[i], secrets[j]) {
				t.Fatalf("secrets %d and %d collide", i, j)
			}
		}
	}
	// Deterministic for fixed inputs.
	hc2, _ := HandshakeSecrets(cr, sr)
	if !bytes.Equal(hc, hc2) {
		t.Fatal("handshake secret not deterministic")
	}
}

func TestResetTokenDeterministicPerCID(t *testing.T) {
	key := []byte("static-key")
	a := ResetToken(key, []byte{1, 2, 3})
	b := ResetToken(key, []byte{1, 2, 3})
	c := ResetToken(key, []byte{4, 5, 6})
	if a != b {
		t.Fatal("token not deterministic")
	}
	if a == c {
		t.Fatal("token does not depend on CID")
	}
	d := ResetToken([]byte("other-key"), []byte{1, 2, 3})
	if a == d {
		t.Fatal("token does not depend on key")
	}
}

func TestRetryTagBindsTokenAndODCID(t *testing.T) {
	key := []byte("k")
	base := RetryTag(key, []byte("odcid"), []byte("token"))
	if base == RetryTag(key, []byte("other"), []byte("token")) {
		t.Fatal("tag ignores ODCID")
	}
	if base == RetryTag(key, []byte("odcid"), []byte("forged")) {
		t.Fatal("tag ignores token")
	}
}

func TestHKDFExpandLength(t *testing.T) {
	prk := HKDFExtract(nil, []byte("ikm"))
	for _, n := range []int{1, 16, 32, 33, 64, 100} {
		if got := len(HKDFExpand(prk, []byte("info"), n)); got != n {
			t.Fatalf("HKDFExpand length %d, want %d", got, n)
		}
	}
}

// TestHKDFExpandRFC5869 checks the multi-block expansion against RFC 5869
// test case 1 (42 bytes: two SHA-256 blocks).
func TestHKDFExpandRFC5869(t *testing.T) {
	prk := HKDFExtract(unhex(t, "000102030405060708090a0b0c"), bytes.Repeat([]byte{0x0b}, 22))
	if got := hex.EncodeToString(prk); got != "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" {
		t.Fatalf("PRK = %s", got)
	}
	okm := HKDFExpand(prk, unhex(t, "f0f1f2f3f4f5f6f7f8f9"), 42)
	if got := hex.EncodeToString(okm); got != "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865" {
		t.Fatalf("OKM = %s", got)
	}
}

// TestHKDFExpandLengthLimit checks RFC 5869 §2.3's cap: 255 blocks expand
// like the standard library's HKDF, and one byte more panics instead of
// wrapping the one-byte block counter.
func TestHKDFExpandLengthLimit(t *testing.T) {
	prk := HKDFExtract(nil, []byte("ikm"))
	const limit = 255 * sha256.Size
	want, err := hkdf.Expand(sha256.New, prk, "info", limit)
	if err != nil {
		t.Fatal(err)
	}
	if got := HKDFExpand(prk, []byte("info"), limit); !bytes.Equal(got, want) {
		t.Fatal("255-block expansion differs from crypto/hkdf")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("HKDFExpand accepted a length beyond 255 blocks")
		}
	}()
	HKDFExpand(prk, []byte("info"), limit+1)
}

// TestNewKeysRFC9001 checks the one-HMAC derivation in NewKeys against the
// client Initial key, iv and hp of RFC 9001 Appendix A.1.
func TestNewKeysRFC9001(t *testing.T) {
	client, _ := InitialSecrets(unhex(t, "8394c8f03e515708"))
	k := NewKeys(client)
	if got := hex.EncodeToString(k.iv[:]); got != "fa044b2f42a3fd3b46fb255c" {
		t.Fatalf("quic iv = %s", got)
	}
	block, err := aes.NewCipher(unhex(t, "1f369613dd76d5467730efcbe3b1a22d"))
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	payload, ad := []byte("crypto frame bytes"), []byte("header")
	var sc Scratch
	if got, want := k.Seal(&sc, nil, payload, 2, ad), aead.Seal(nil, k.nonce(&sc, 2), payload, ad); !bytes.Equal(got, want) {
		t.Fatal("quic key differs from RFC 9001 A.1")
	}
	hp, err := aes.NewCipher(unhex(t, "9f50449e04a0e810283a1e9933adedd2"))
	if err != nil {
		t.Fatal(err)
	}
	sample := unhex(t, "d1b1c98dd7689fb8ec11d242b123dc9b")
	got, want := make([]byte, 16), make([]byte, 16)
	k.hp.Encrypt(got, sample)
	hp.Encrypt(want, sample)
	if !bytes.Equal(got, want) {
		t.Fatal("quic hp differs from RFC 9001 A.1")
	}
}

// TestProtectHeaderRFC9001 protects the client Initial header of RFC 9001
// Appendix A.2 (packet number 2 in four bytes) with its ciphertext sample.
func TestProtectHeaderRFC9001(t *testing.T) {
	client, _ := InitialSecrets(unhex(t, "8394c8f03e515708"))
	k := NewKeys(client)
	header := unhex(t, "c300000001088394c8f03e5157080000449e00000002")
	packet := append(header, unhex(t, "d1b1c98dd7689fb8ec11d242b123dc9b")...)
	if err := k.ProtectHeader(new(Scratch), packet, len(header)-4); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(packet[:len(header)]); got != "c000000001088394c8f03e5157080000449e7b9aec34" {
		t.Fatalf("protected header = %s", got)
	}
}

// TestKeyTable checks that InitialKeys and SessionKeys derive what NewKeys
// derives, hand both endpoints the same *Keys, keep input pairs that
// concatenate alike apart, and stay within their bound.
func TestKeyTable(t *testing.T) {
	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	initial := InitialKeys(dcid)
	if again := InitialKeys(dcid); again != initial {
		t.Fatal("second InitialKeys lookup derived new keys")
	}
	client, _ := InitialSecrets(dcid)
	direct := NewKeys(client)
	payload, ad := []byte("payload"), []byte("ad")
	var sc Scratch
	if !bytes.Equal(initial.Client.Seal(&sc, nil, payload, 1, ad), direct.Seal(&sc, nil, payload, 1, ad)) {
		t.Fatal("InitialKeys client keys differ from NewKeys(InitialSecrets)")
	}
	hs, app := SessionKeys([]byte("ab"), []byte("c"))
	if hs2, app2 := SessionKeys([]byte("ab"), []byte("c")); hs2 != hs || app2 != app {
		t.Fatal("second SessionKeys lookup derived new keys")
	}
	if hs3, _ := SessionKeys([]byte("a"), []byte("bc")); hs3.Client.iv == hs.Client.iv {
		t.Fatal(`("a","bc") shares keys with ("ab","c")`)
	}
	for i := 0; i < 2*keyTableSize; i++ {
		InitialKeys([]byte(fmt.Sprint(i)))
	}
	tableMu.Lock()
	n := len(keyTable)
	tableMu.Unlock()
	if n > keyTableSize {
		t.Fatalf("key table holds %d entries, bound %d", n, keyTableSize)
	}
}

// TestKeyAllocs pins the packet-protection hot paths: sealing, opening
// and header protection work in the endpoint's Scratch and allocate
// nothing, a table hit allocates nothing, and NewKeys allocates only its
// ciphers.
func TestKeyAllocs(t *testing.T) {
	client, _ := InitialSecrets([]byte{9})
	k := NewKeys(client)
	var sc Scratch
	packet := make([]byte, 64)
	if avg := testing.AllocsPerRun(200, func() { _ = k.ProtectHeader(&sc, packet, 18) }); avg != 0 {
		t.Fatalf("ProtectHeader allocates %.1f allocs/op, want 0", avg)
	}
	buf, header := make([]byte, 0, 128), make([]byte, 22)
	header[21] = 3 // packet number 3 at offset 18
	if avg := testing.AllocsPerRun(200, func() {
		pkt := append(append(buf[:0], header...), packet[:40]...)
		pkt = k.SealPacket(&sc, pkt, 18, 3)
		if _, _, err := k.OpenPacket(&sc, pkt, 18); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("SealPacket + OpenPacket allocate %.1f allocs/op, want 0", avg)
	}
	dcid, hello, random := []byte{7, 7, 7, 7}, []byte("CLIENT_HELLO:hello"), []byte("random")
	InitialKeys(dcid)
	SessionKeys(hello, random)
	if avg := testing.AllocsPerRun(200, func() { InitialKeys(dcid) }); avg != 0 {
		t.Fatalf("InitialKeys table hit allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { SessionKeys(hello, random) }); avg != 0 {
		t.Fatalf("SessionKeys table hit allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { NewKeys(client) }); avg > 4 {
		t.Fatalf("NewKeys allocates %.1f allocs/op, want <= 4", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { MAC(client, hello, random) }); avg != 0 {
		t.Fatalf("MAC allocates %.1f allocs/op, want 0", avg)
	}
}

// TestPacketRoundTrip seals packets built in place and opens them again:
// SealPacket must produce what Seal plus ProtectHeader produce, and
// OpenPacket must recover the packet number and payload.
func TestPacketRoundTrip(t *testing.T) {
	client, _ := InitialSecrets([]byte{5, 6, 7})
	k := NewKeys(client)
	var sc Scratch
	header := []byte{0xC3, 0, 0, 0, 1, 0, 0, 0x40, 0x30, 0, 0, 0, 9}
	const pnOffset = 9
	for _, n := range []int{20, 48, 300} {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		pkt := k.SealPacket(&sc, append(append([]byte(nil), header...), payload...), pnOffset, 9)
		want := append(append([]byte(nil), header...), k.Seal(&sc, nil, payload, 9, header)...)
		if err := k.ProtectHeader(&sc, want, pnOffset); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pkt, want) {
			t.Fatalf("%d-byte payload: SealPacket differs from Seal + ProtectHeader", n)
		}
		pn, opened, err := k.OpenPacket(&sc, pkt, pnOffset)
		if err != nil || pn != 9 || !bytes.Equal(opened, payload) {
			t.Fatalf("%d-byte payload: OpenPacket = %d, %v", n, pn, err)
		}
	}
}

// TestMACMatchesHMAC compares MAC with crypto/hmac over keys of 0 to 130
// bytes, so keys longer than one block are hashed first, and messages of 0
// to 400 bytes split into one to three parts, so messages past the stack
// buffer take the heap fallback.
func TestMACMatchesHMAC(t *testing.T) {
	data := make([]byte, 530)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	for klen := 0; klen <= 130; klen++ {
		key := data[:klen]
		for mlen := 0; mlen <= 400; mlen += 1 + klen%7 {
			msg := data[klen : klen+mlen]
			h := hmac.New(sha256.New, key)
			h.Write(msg)
			want := h.Sum(nil)
			a, b := mlen/3, 2*mlen/3
			for _, parts := range [][][]byte{{msg}, {msg[:a], msg[a:]}, {msg[:a], msg[a:b], msg[b:]}} {
				if got := MAC(key, parts...); !bytes.Equal(got[:], want) {
					t.Fatalf("key %d B, message %d B in %d parts: MAC differs from crypto/hmac", klen, mlen, len(parts))
				}
			}
		}
	}
}

// FuzzMAC checks MAC against crypto/hmac on arbitrary keys and messages,
// the message split at an arbitrary point.
func FuzzMAC(f *testing.F) {
	f.Add([]byte("key"), []byte("message"), uint16(3))
	f.Add(bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 300), uint16(299))
	f.Fuzz(func(t *testing.T, key, msg []byte, cut uint16) {
		h := hmac.New(sha256.New, key)
		h.Write(msg)
		want := h.Sum(nil)
		c := int(cut) % (len(msg) + 1)
		if got := MAC(key, msg[:c], msg[c:]); !bytes.Equal(got[:], want) {
			t.Fatalf("MAC(%x, %x | %x) differs from crypto/hmac", key, msg[:c], msg[c:])
		}
	})
}

// TestSharedKeysConcurrentUse drives one table-shared Keys from several
// goroutines at once, as a client and a server on different goroutines
// do, while the same goroutines look up and insert table entries; run it
// under -race.
func TestSharedKeysConcurrentUse(t *testing.T) {
	dcid := []byte("concurrent")
	shared := InitialKeys(dcid).Client
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc Scratch // each endpoint brings its own
			payload := []byte(fmt.Sprintf("payload of goroutine %d", g))
			for pn := uint64(0); pn < 200; pn++ {
				InitialKeys([]byte{byte(g), byte(pn)}) // misses, and clears when full
				sealed := shared.Seal(&sc, nil, payload, pn, []byte{byte(g)})
				if !bytes.Equal(sealed, InitialKeys(dcid).Client.Seal(&sc, nil, payload, pn, []byte{byte(g)})) {
					t.Errorf("goroutine %d pn %d: table keys differ from the shared keys", g, pn)
					return
				}
				packet := append(make([]byte, 8), sealed...)
				orig := append([]byte(nil), packet...)
				if err := shared.ProtectHeader(&sc, packet, 4); err != nil {
					t.Error(err)
					return
				}
				if err := shared.UnprotectHeader(&sc, packet, 4); err != nil || !bytes.Equal(packet, orig) {
					t.Errorf("goroutine %d pn %d: header protection did not round-trip", g, pn)
					return
				}
				opened, err := shared.Open(&sc, nil, sealed, pn, []byte{byte(g)})
				if err != nil || !bytes.Equal(opened, payload) {
					t.Errorf("goroutine %d pn %d: open: %v", g, pn, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
