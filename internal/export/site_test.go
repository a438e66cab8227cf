package export

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func sitedBatch(site string) Batch {
	return Batch{Epoch: 9, Site: site, Records: []Record{
		{Key: rec(3).Key, Pkts: 12, Bytes: 4800, FirstSeen: 10, LastUpdate: 90},
		{Key: seedKeyV6(), Pkts: 2, Bytes: 128, FirstSeen: 20, LastUpdate: 80},
	}}
}

func TestSiteRoundTrip(t *testing.T) {
	for _, site := range []string{"edge-1", "a", strings.Repeat("x", MaxSiteLen)} {
		var buf bytes.Buffer
		if err := WriteBatch(&buf, sitedBatch(site)); err != nil {
			t.Fatalf("WriteBatch(site=%q): %v", site, err)
		}
		if got := buf.Bytes()[4]; got != versionSited {
			t.Fatalf("site=%q: version byte = %d, want %d", site, got, versionSited)
		}
		b, err := ReadBatch(&buf)
		if err != nil {
			t.Fatalf("ReadBatch(site=%q): %v", site, err)
		}
		if b.Site != site || b.Epoch != 9 || len(b.Records) != 2 {
			t.Fatalf("round trip: got site=%q epoch=%d n=%d", b.Site, b.Epoch, len(b.Records))
		}
	}
}

// TestEmptySiteEmitsV1 pins the interop contract: a batch without a site
// must encode byte-identically to the pre-fleet version-1 frame, so old
// collectors keep decoding single-meter exporters.
func TestEmptySiteEmitsV1(t *testing.T) {
	b := sitedBatch("")
	var buf bytes.Buffer
	if err := WriteBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != version {
		t.Fatalf("empty site: version byte = %d, want v1 (%d)", got, version)
	}
	got, err := ReadBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Site != "" {
		t.Fatalf("v1 frame decoded with site %q", got.Site)
	}
}

func TestValidateSiteRejections(t *testing.T) {
	bad := []string{
		strings.Repeat("x", MaxSiteLen+1), // over length
		"has space",                       // space is not printable-non-space
		"tab\tsite",                       // control byte
		"nul\x00",                         // NUL
		"high\x80bit",                     // non-ASCII
	}
	for _, site := range bad {
		if err := ValidateSite(site); !errors.Is(err, ErrBadSite) {
			t.Errorf("ValidateSite(%q) = %v, want ErrBadSite", site, err)
		}
		var buf bytes.Buffer
		if err := WriteBatch(&buf, Batch{Site: site}); !errors.Is(err, ErrBadSite) {
			t.Errorf("WriteBatch(site=%q) = %v, want ErrBadSite", site, err)
		}
	}
	if err := ValidateSite(""); err != nil {
		t.Errorf("ValidateSite(\"\") = %v, want nil", err)
	}
	if err := ValidateSite("edge-1.rack2"); err != nil {
		t.Errorf("ValidateSite(edge-1.rack2) = %v, want nil", err)
	}
}

// TestSiteFrameTruncation feeds every proper prefix of a v2 frame to the
// decoder: each must fail (truncation mid-frame is io.ErrUnexpectedEOF or
// a typed codec error, never a panic, never a silent success).
func TestSiteFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, sitedBatch("edge-1")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for n := 0; n < len(frame); n++ {
		_, err := ReadBatch(bytes.NewReader(frame[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(frame))
		}
		if n >= 5 && !errors.Is(err, io.ErrUnexpectedEOF) &&
			!errors.Is(err, ErrBadSite) && !errors.Is(err, ErrFrameLength) {
			t.Fatalf("prefix %d/%d: unexpected error class: %v", n, len(frame), err)
		}
	}
}

// TestSiteCRCCoversSite pins the misattribution defence: flipping a site
// byte on the wire must fail the frame CRC, not deliver the batch to the
// wrong per-site view.
func TestSiteCRCCoversSite(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, sitedBatch("edge-1")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	// Layout: magic(4) version(1) siteLen(1) site... — byte 6 is "e".
	frame[6] = 'f'
	if _, err := ReadBatch(bytes.NewReader(frame)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted site byte: err = %v, want ErrChecksum", err)
	}
}

func TestBadSiteLength(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, sitedBatch("edge-1")); err != nil {
		t.Fatal(err)
	}
	zero := append([]byte(nil), buf.Bytes()...)
	zero[5] = 0 // v2 with siteLen 0 is malformed, not "no site"
	if _, err := ReadBatch(bytes.NewReader(zero)); !errors.Is(err, ErrBadSite) {
		t.Fatalf("siteLen=0: err = %v, want ErrBadSite", err)
	}
	// Just past the limit, and the one-byte prefix's maximum, which
	// would run past the reader's header buffer if it were sliced by.
	for _, n := range []byte{MaxSiteLen + 1, 255} {
		long := append([]byte(nil), buf.Bytes()...)
		long[5] = n
		if _, err := ReadBatch(bytes.NewReader(long)); !errors.Is(err, ErrBadSite) {
			t.Fatalf("siteLen=%d: err = %v, want ErrBadSite", n, err)
		}
	}
	// Valid length prefix but non-printable site bytes: ValidateSite runs
	// on decode too.
	ctrl := append([]byte(nil), buf.Bytes()...)
	ctrl[6] = 0x07
	if _, err := ReadBatch(bytes.NewReader(ctrl)); !errors.Is(err, ErrBadSite) && !errors.Is(err, ErrChecksum) {
		t.Fatalf("control byte in site: err = %v, want ErrBadSite or ErrChecksum", err)
	}
}

func TestExporterWithSiteValidation(t *testing.T) {
	e := &Exporter{}
	if err := e.WithSite(strings.Repeat("x", MaxSiteLen+1)); !errors.Is(err, ErrBadSite) {
		t.Fatalf("WithSite(overlong) = %v, want ErrBadSite", err)
	}
	if err := e.WithSite("edge-1"); err != nil {
		t.Fatal(err)
	}
	if got := e.Site(); got != "edge-1" {
		t.Fatalf("Site() = %q", got)
	}
	if err := e.WithSite(""); err != nil {
		t.Fatal(err)
	}
	if got := e.Site(); got != "" {
		t.Fatalf("Site() after reset = %q", got)
	}
}

func fuzzSeedSited(site string) []byte {
	var buf bytes.Buffer
	_ = WriteBatch(&buf, Batch{Epoch: 7, Site: site, Records: []Record{
		{Key: rec(4).Key, Pkts: 5, Bytes: 2048, FirstSeen: 1, LastUpdate: 2},
	}})
	return buf.Bytes()
}

// FuzzFleetFrame drives the site-ID extension of the batch frame: v1 and
// v2 frames must both decode, any decodable frame must round-trip with
// its site intact, and a re-encoded empty-site batch must come back as a
// v1 frame (the interop contract).
func FuzzFleetFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzSeedBatch())       // v1 frame
	f.Add(fuzzSeedSited("edge")) // v2 frame
	trunc := fuzzSeedSited("edge-site-long-name")
	f.Add(trunc[:9]) // cut mid-site
	badLen := fuzzSeedSited("edge")
	badLen[5] = 0xFF // siteLen over MaxSiteLen
	f.Add(badLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := ValidateSite(b.Site); err != nil {
			t.Fatalf("decoded frame carries invalid site %q: %v", b.Site, err)
		}
		var re bytes.Buffer
		if err := WriteBatch(&re, b); err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		if b.Site == "" && re.Bytes()[4] != version {
			t.Fatalf("siteless batch re-encoded as version %d", re.Bytes()[4])
		}
		b2, err := ReadBatch(&re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if b2.Site != b.Site || b2.Epoch != b.Epoch || len(b2.Records) != len(b.Records) {
			t.Fatalf("round trip changed frame: site %q/%q epoch %d/%d n %d/%d",
				b2.Site, b.Site, b2.Epoch, b.Epoch, len(b2.Records), len(b.Records))
		}
		for i := range b.Records {
			a, z := b.Records[i], b2.Records[i]
			if a.Key != z.Key || !sameBits(a.Pkts, z.Pkts) || !sameBits(a.Bytes, z.Bytes) ||
				a.FirstSeen != z.FirstSeen || a.LastUpdate != z.LastUpdate {
				t.Fatalf("record %d changed in round trip:\n  %+v\n  %+v", i, a, z)
			}
		}
	})
}
