package trace

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode drives the trace decoder with arbitrary bytes. The contract
// under fuzzing: Decode never panics, never allocates from an unvalidated
// length, and on success every accessor also completes without panicking.
func FuzzDecode(f *testing.F) {
	cap := buildCapture(f)
	var buf bytes.Buffer
	if err := cap.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(Magic)+1])
	f.Add([]byte(Magic))
	f.Add([]byte("GSTR\x01"))
	f.Add([]byte{})
	// Version bump and one-byte corruption as seed mutations.
	bumped := bytes.Clone(valid)
	bumped[len(Magic)] = 0x7f
	f.Add(bumped)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			var ve *VersionError
			var fe *FormatError
			if !errors.Is(err, ErrTruncated) && !errors.As(err, &ve) && !errors.As(err, &fe) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A successfully decoded trace must be fully traversable.
		tr.Launch()
		tr.NewMemory()
		tr.Program() // may fail (arbitrary program text), must not panic
	})
}
