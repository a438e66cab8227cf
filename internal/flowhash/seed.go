package flowhash

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"time"
)

// RandomSeed draws a nonzero hash seed from the operating system's entropy
// source — the key that keeps a hash-addressed table's probe chains out of
// an attacker's reach (internal/trace.GenerateCollisionFlood is the attack
// on a predictable one).
func RandomSeed() uint64 {
	var b [8]byte
	for {
		if _, err := cryptorand.Read(b[:]); err != nil {
			// Entropy failure is effectively impossible on the supported
			// platforms; degrade to a time-mixed seed rather than panic —
			// weaker unpredictability still beats a fixed constant.
			return Mix64(uint64(time.Now().UnixNano()) | 1)
		}
		if s := binary.LittleEndian.Uint64(b[:]); s != 0 {
			return s
		}
	}
}
