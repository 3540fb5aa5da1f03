// Package patch implements the Patch Creator (paper §4.4, Task 1): it cuts
// 30 nm × 30 nm patches out of continuum snapshots around each protein,
// resamples the lipid density fields onto a 37×37 grid (the paper's patch
// sampling resolution, ~55× larger than prior work's 5×5), and serializes
// each patch as a standard NumPy array (~70 KB) for consumption by the rest
// of the framework.
package patch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"mummi/internal/continuum"
	"mummi/internal/npy"
	"mummi/internal/units"
)

// DefaultSize is the paper's patch side length.
const DefaultSize = 30 * units.Nm

// DefaultGridN is the paper's patch sampling resolution (37×37).
const DefaultGridN = 37

// Patch is one cut-out region around a protein.
type Patch struct {
	// ID is unique across the campaign: "t<µs>_p<protein>".
	ID string
	// Time is the snapshot's simulated time.
	Time units.SimTime
	// Center is the protein the patch is cut around.
	Center continuum.Protein
	// Size is the physical side length.
	Size units.Length
	// GridN is the resampling resolution per side.
	GridN int
	// Fields holds the resampled densities, [species][GridN*GridN].
	Fields [][]float32
	// Neighbors lists the other proteins inside the patch.
	Neighbors []continuum.Protein
}

// Create cuts one patch of the given size and resolution around center,
// bilinearly resampling every species field with periodic wrapping.
func Create(snap *continuum.Snapshot, center continuum.Protein, size units.Length, gridN int) (*Patch, error) {
	if gridN < 2 {
		return nil, fmt.Errorf("patch: gridN %d too small", gridN)
	}
	if size <= 0 || units.Length(snap.Domain) < size {
		return nil, fmt.Errorf("patch: size %v outside domain %v", size, snap.Domain)
	}
	dom := snap.Domain.Nanometers()
	half := size.Nanometers() / 2
	p := &Patch{
		ID:     fmt.Sprintf("t%06d_p%04d", int64(p2us(snap.Time)), center.ID),
		Time:   snap.Time,
		Center: center,
		Size:   size,
		GridN:  gridN,
		Fields: make([][]float32, len(snap.Fields)),
	}
	for sp, f := range snap.Fields {
		out := make([]float32, gridN*gridN)
		for gy := 0; gy < gridN; gy++ {
			for gx := 0; gx < gridN; gx++ {
				// Physical coordinates of this patch sample.
				px := center.X - half + size.Nanometers()*float64(gx)/float64(gridN-1)
				py := center.Y - half + size.Nanometers()*float64(gy)/float64(gridN-1)
				out[gy*gridN+gx] = float32(sampleBilinear(f, snap.GridN, dom, px, py))
			}
		}
		p.Fields[sp] = out
	}
	for _, q := range snap.Protein {
		if q.ID == center.ID {
			continue
		}
		if pdist(q.X, center.X, dom) <= half && pdist(q.Y, center.Y, dom) <= half {
			p.Neighbors = append(p.Neighbors, q)
		}
	}
	return p, nil
}

// CreateAll cuts one patch per protein in the snapshot — the per-snapshot
// unit of Patch Creator work (~333 patches per snapshot at paper scale:
// 6,828,831 patches / 20,507 snapshots).
func CreateAll(snap *continuum.Snapshot, size units.Length, gridN int) ([]*Patch, error) {
	out := make([]*Patch, 0, len(snap.Protein))
	for _, prot := range snap.Protein {
		p, err := Create(snap, prot, size, gridN)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func p2us(t units.SimTime) float64 { return t.Microseconds() }

// pdist is the minimum-image distance along one periodic axis.
func pdist(a, b, dom float64) float64 {
	d := math.Abs(a - b)
	if d > dom/2 {
		d = dom - d
	}
	return d
}

// sampleBilinear samples field f (n×n over a periodic dom×dom domain) at
// physical position (x, y) nm.
func sampleBilinear(f []float32, n int, dom, x, y float64) float64 {
	fx := wrapF(x, dom) / dom * float64(n)
	fy := wrapF(y, dom) / dom * float64(n)
	x0, y0 := int(fx), int(fy)
	tx, ty := fx-float64(x0), fy-float64(y0)
	x0, y0 = x0%n, y0%n
	x1, y1 := (x0+1)%n, (y0+1)%n
	v00 := float64(f[y0*n+x0])
	v10 := float64(f[y0*n+x1])
	v01 := float64(f[y1*n+x0])
	v11 := float64(f[y1*n+x1])
	return v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
}

func wrapF(v, dom float64) float64 {
	v = math.Mod(v, dom)
	if v < 0 {
		v += dom
	}
	return v
}

// meta is the JSON header serialized ahead of the npy payload.
type meta struct {
	ID        string              `json:"id"`
	TimeFs    int64               `json:"time_fs"`
	Center    continuum.Protein   `json:"center"`
	SizeNm    float64             `json:"size_nm"`
	GridN     int                 `json:"grid_n"`
	Neighbors []continuum.Protein `json:"neighbors,omitempty"`
}

// Marshal serializes the patch: one JSON metadata line followed by a NumPy
// array of shape (species, GridN, GridN) float32 — "a standard Numpy format"
// offering "simple and portable I/O". At paper scale (14 species, 37×37)
// the payload is ~77 KB, matching the quoted ~70 KB.
func (p *Patch) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	m := meta{ID: p.ID, TimeFs: p.Time.Femtoseconds(), Center: p.Center,
		SizeNm: p.Size.Nanometers(), GridN: p.GridN, Neighbors: p.Neighbors}
	hdr, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	buf.Write(hdr)
	buf.WriteByte('\n')
	flat := make([]float32, 0, len(p.Fields)*p.GridN*p.GridN)
	for _, f := range p.Fields {
		flat = append(flat, f...)
	}
	arr := &npy.Array{Shape: []int{len(p.Fields), p.GridN, p.GridN}, Data: flat}
	if err := npy.Write(&buf, arr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes a serialized patch.
func Unmarshal(b []byte) (*Patch, error) {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return nil, fmt.Errorf("patch: missing metadata header")
	}
	var m meta
	if err := json.Unmarshal(b[:i], &m); err != nil {
		return nil, fmt.Errorf("patch: corrupt metadata: %w", err)
	}
	arr, err := npy.Unmarshal(b[i+1:])
	if err != nil {
		return nil, fmt.Errorf("patch: corrupt array: %w", err)
	}
	if len(arr.Shape) != 3 || arr.Shape[1] != m.GridN || arr.Shape[2] != m.GridN {
		return nil, fmt.Errorf("patch: unexpected array shape %v", arr.Shape)
	}
	flat, ok := arr.Data.([]float32)
	if !ok {
		return nil, fmt.Errorf("patch: array dtype %T, want float32", arr.Data)
	}
	p := &Patch{
		ID:        m.ID,
		Time:      units.SimTime(m.TimeFs),
		Center:    m.Center,
		Size:      units.Length(m.SizeNm),
		GridN:     m.GridN,
		Neighbors: m.Neighbors,
	}
	per := m.GridN * m.GridN
	for sp := 0; sp < arr.Shape[0]; sp++ {
		p.Fields = append(p.Fields, flat[sp*per:(sp+1)*per])
	}
	return p, nil
}
