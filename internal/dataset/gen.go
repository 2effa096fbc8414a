package dataset

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"github.com/explore-by-example/aide/internal/geom"
)

// The generators below are deterministic given a seed and reproduce the
// statistical properties AIDE's evaluation depends on: the SDSS table has
// roughly uniform attributes (rowc, colc) and skewed ones (dec, ra,
// field), matching Section 6.1 of the paper; the AuctionMark ITEM table is
// highly skewed with correlated price/bid attributes, matching the user
// study of Section 6.5.

// SDSS PhotoObjAll attribute domains. rowc/colc are CCD pixel coordinates
// (roughly uniform over the frame), ra/dec are sky coordinates
// (concentrated along survey stripes), field/fieldID identify the imaging
// run (skewed toward long runs).
const (
	sdssRowcMax    = 1489
	sdssColcMax    = 2048
	sdssRaMax      = 360
	sdssDecMin     = -25
	sdssDecMax     = 85
	sdssFieldMax   = 1000
	sdssFieldIDMax = 1 << 20
)

// SDSSSchema returns the schema of the synthetic PhotoObjAll table.
func SDSSSchema() Schema {
	return Schema{
		{Name: "rowc", Min: 0, Max: sdssRowcMax},
		{Name: "colc", Min: 0, Max: sdssColcMax},
		{Name: "ra", Min: 0, Max: sdssRaMax},
		{Name: "dec", Min: sdssDecMin, Max: sdssDecMax},
		{Name: "field", Min: 0, Max: sdssFieldMax},
		{Name: "fieldID", Min: 0, Max: sdssFieldIDMax},
	}
}

// GenerateSDSS builds a synthetic PhotoObjAll table with n rows: every
// row of SDSSSource(n, seed), collected.
//
// Distributions:
//   - rowc, colc: uniform over the CCD frame (the paper's default "dense
//     exploration space on rowc and colc").
//   - ra: mixture of survey stripes — Gaussian bumps at fixed right
//     ascensions plus a uniform background (skewed).
//   - dec: Gaussian concentration around the survey's central declination
//     band, clipped to the domain (skewed).
//   - field: truncated exponential — early fields of a run are far more
//     common (skewed).
//   - fieldID: Zipf-like over the id space (skewed).
func GenerateSDSS(n int, seed int64) *Table {
	rowc, colc, ra, dec := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	field, fieldID := make([]float64, n), make([]float64, n)
	sdssRows(n, seed, sdssAll, nil, func(r int, row *[6]float64) {
		rowc[r], colc[r], ra[r], dec[r], field[r], fieldID[r] = row[0], row[1], row[2], row[3], row[4], row[5]
	})
	t, err := NewTable("PhotoObjAll", SDSSSchema(), [][]float64{rowc, colc, ra, dec, field, fieldID})
	if err != nil {
		panic(err) // shapes are correct by construction
	}
	return t
}

// sdssAll asks sdssRows for every column.
var sdssAll = [6]bool{true, true, true, true, true, true}

// SDSSSource is GenerateSDSS(n, seed) as a Source that holds no row:
// each Scan replays the generator's one rng stream. The first Scan
// computes every column, keeps the first and last rows (Ends), and
// records the few rows where fieldID's Zipf draw, a rejection loop, took
// other than one rng value (638 of 3 M at seed 7). A later Scan computes
// only the columns it asks for: a skipped column costs its rng draws but
// not its arithmetic, and a skipped fieldID takes one value per row, or
// the recorded count.
func SDSSSource(n int, seed int64) Source { return &sdssSource{n: n, seed: seed} }

type sdssSource struct {
	n    int
	seed int64

	mu  sync.Mutex
	rec *sdssRecord // the first Scan's; nil before it
}

// sdssRecord is what an sdssSource's first Scan keeps for the later ones.
type sdssRecord struct {
	multi       []multiDraw
	first, last geom.Point
}

// multiDraw is a row whose fieldID took draws rng values, draws != 1.
type multiDraw struct{ row, draws int }

func (s *sdssSource) Name() string   { return "PhotoObjAll" }
func (s *sdssSource) Schema() Schema { return SDSSSchema() }
func (s *sdssSource) NumRows() int   { return s.n }

func (s *sdssSource) record() *sdssRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

func (s *sdssSource) Scan(cols []int, fn func(row int, vals []float64)) {
	rec := s.record()
	want, replay := sdssAll, []multiDraw(nil)
	if rec != nil {
		want, replay = [6]bool{}, rec.multi
		for _, c := range cols {
			want[c] = true
		}
	}
	var first, last geom.Point
	vals := make([]float64, len(cols))
	multi := sdssRows(s.n, s.seed, want, replay, func(r int, row *[6]float64) {
		if rec == nil && (r == 0 || r == s.n-1) {
			end := slices.Clone(row[:])
			if r == 0 {
				first = end
			}
			last = end
		}
		for k, c := range cols {
			vals[k] = row[c]
		}
		fn(r, vals)
	})
	if rec == nil {
		s.mu.Lock()
		s.rec = &sdssRecord{multi: multi, first: first, last: last}
		s.mu.Unlock()
	}
}

// Ends returns the first and last rows (nil when there are none), from
// the first Scan, which it runs if none has.
func (s *sdssSource) Ends() (first, last geom.Point) {
	rec := s.record()
	if rec == nil {
		s.Scan(nil, func(int, []float64) {})
		rec = s.record()
	}
	return slices.Clone(rec.first), slices.Clone(rec.last)
}

// countedSource is the rand.Source sdssRows draws fieldID's Zipf values
// from: the generator's own stream, counting the values taken.
type countedSource struct {
	r *rand.Rand
	n int
}

func (c *countedSource) Int63() int64 { c.n++; return c.r.Int63() }
func (c *countedSource) Seed(s int64) { c.r.Seed(s) }

// sdssRows runs GenerateSDSS's rng stream over n rows and calls emit with
// each; a column want leaves false holds a stale value. With want[5] it
// draws fieldID and returns the rows whose draw took other than one rng
// value. Without, it computes no fieldID: each row takes one rng value,
// or the draws replay lists for it, and it returns nil.
func sdssRows(n int, seed int64, want [6]bool, replay []multiDraw, emit func(r int, row *[6]float64)) (recorded []multiDraw) {
	rng := rand.New(rand.NewSource(seed))
	// Stripe centers for the ra mixture, mimicking SDSS imaging stripes.
	stripes := []float64{30, 120, 150, 185, 220, 330}
	counted := &countedSource{r: rng}
	zipf := rand.NewZipf(rand.New(counted), 1.3, 8, sdssFieldIDMax-1)
	var row [6]float64
	for i := 0; i < n; i++ {
		row[0] = rng.Float64() * sdssRowcMax
		row[1] = rng.Float64() * sdssColcMax

		if rng.Float64() < 0.85 {
			c := stripes[rng.Intn(len(stripes))]
			row[2] = clamp(c+rng.NormFloat64()*12, 0, sdssRaMax)
		} else {
			row[2] = rng.Float64() * sdssRaMax
		}

		row[3] = clamp(25+rng.NormFloat64()*18, sdssDecMin, sdssDecMax)

		if u := rng.Float64(); want[4] {
			row[4] = clamp(-math.Log(1-u)*(sdssFieldMax/5), 0, sdssFieldMax)
		}

		if want[5] {
			before := counted.n
			row[5] = float64(zipf.Uint64())
			if draws := counted.n - before; draws != 1 {
				recorded = append(recorded, multiDraw{i, draws})
			}
		} else {
			draws := 1
			if len(replay) > 0 && replay[0].row == i {
				draws, replay = replay[0].draws, replay[1:]
			}
			for ; draws > 0; draws-- {
				rng.Int63()
			}
		}
		emit(i, &row)
	}
	return recorded
}

// AuctionMark ITEM attribute domains (Section 6.5: seven attributes).
const (
	aucInitialPriceMax = 1000
	aucCurrentPriceMax = 2000
	aucNumBidsMax      = 300
	aucNumCommentsMax  = 60
	aucNumDaysMax      = 30
	aucPriceDiffMax    = 1500
	aucDaysToCloseMax  = 14
)

// AuctionSchema returns the schema of the synthetic AuctionMark ITEM
// table: initial price, current price, number of bids, number of
// comments, number of days the item has been in auction, difference
// between initial and current price, and days until the auction closes.
func AuctionSchema() Schema {
	return Schema{
		{Name: "initial_price", Min: 0, Max: aucInitialPriceMax},
		{Name: "current_price", Min: 0, Max: aucCurrentPriceMax},
		{Name: "num_bids", Min: 0, Max: aucNumBidsMax},
		{Name: "num_comments", Min: 0, Max: aucNumCommentsMax},
		{Name: "days_in_auction", Min: 0, Max: aucNumDaysMax},
		{Name: "price_diff", Min: 0, Max: aucPriceDiffMax},
		{Name: "days_to_close", Min: 0, Max: aucDaysToCloseMax},
	}
}

// GenerateAuction builds a synthetic ITEM table with n rows. Prices follow
// a log-normal (most items cheap, a long expensive tail); bids and
// comments are bursty and correlated with item popularity; the derived
// price_diff column is consistent with the two price columns. The result
// is a highly skewed exploration space whose dense regions sit at low
// prices and low bid counts, matching the user-study characteristics.
func GenerateAuction(n int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("ITEM", AuctionSchema())
	for i := 0; i < n; i++ {
		initial := clamp(math.Exp(3+rng.NormFloat64()*1.1), 0, aucInitialPriceMax)
		// Popularity drives bids, comments, and price growth.
		popularity := rng.Float64()
		bids := clamp(math.Floor(-math.Log(1-rng.Float64())*30*popularity), 0, aucNumBidsMax)
		growth := 1 + 0.02*bids + math.Abs(rng.NormFloat64())*0.1
		current := clamp(initial*growth, 0, aucCurrentPriceMax)
		comments := clamp(math.Floor(bids*0.15+-math.Log(1-rng.Float64())*2), 0, aucNumCommentsMax)
		daysIn := clamp(math.Floor(rng.Float64()*aucNumDaysMax), 0, aucNumDaysMax)
		diff := clamp(current-initial, 0, aucPriceDiffMax)
		toClose := clamp(math.Floor(-math.Log(1-rng.Float64())*4), 0, aucDaysToCloseMax)
		b.Add(initial, current, bids, comments, daysIn, diff, toClose)
	}
	return b.Build()
}

// GenerateUniform builds a table with d attributes named a0..a(d-1), each
// uniform over [0,100]. Useful for controlled tests where analytic
// expectations are easy.
func GenerateUniform(n, d int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	schema := make(Schema, d)
	cols := make([][]float64, d)
	for j := 0; j < d; j++ {
		schema[j] = Column{Name: attrName(j), Min: 0, Max: 100}
		cols[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			cols[j][i] = rng.Float64() * 100
		}
	}
	t, err := NewTable("uniform", schema, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// ClusterSpec describes one Gaussian cluster for GenerateClusters.
type ClusterSpec struct {
	Center []float64 // cluster mean per dimension, in [0,100]
	Std    float64   // per-dimension standard deviation
	Weight float64   // relative share of rows
}

// GenerateClusters builds a table with d attributes (domains [0,100])
// drawn from a mixture of Gaussian clusters plus a uniform background
// fraction. It produces the skewed, dense-region-dominated spaces used to
// evaluate the clustering-based discovery optimization (Section 3.1).
func GenerateClusters(n, d int, specs []ClusterSpec, background float64, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	schema := make(Schema, d)
	cols := make([][]float64, d)
	for j := 0; j < d; j++ {
		schema[j] = Column{Name: attrName(j), Min: 0, Max: 100}
		cols[j] = make([]float64, n)
	}
	var totalW float64
	for _, s := range specs {
		totalW += s.Weight
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < background || totalW == 0 {
			for j := 0; j < d; j++ {
				cols[j][i] = rng.Float64() * 100
			}
			continue
		}
		// Pick a cluster by weight.
		pick := rng.Float64() * totalW
		var spec ClusterSpec
		for _, s := range specs {
			pick -= s.Weight
			spec = s
			if pick <= 0 {
				break
			}
		}
		for j := 0; j < d; j++ {
			c := 50.0
			if j < len(spec.Center) {
				c = spec.Center[j]
			}
			cols[j][i] = clamp(c+rng.NormFloat64()*spec.Std, 0, 100)
		}
	}
	t, err := NewTable("clusters", schema, cols)
	if err != nil {
		panic(err)
	}
	return t
}

func attrName(j int) string {
	return "a" + itoa(j)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
