// Package planetlab models the paper's third measurement environment: the
// Internet, observed from 26 PlanetLab sites between October and December
// 2006. The real testbed is gone, so the package substitutes a synthetic
// wide-area mesh that preserves what the measurement exercises:
//
//   - the 26-site catalogue of the paper's Table 1, with geographic
//     coordinates, giving 650 directed paths;
//   - a deterministic per-path RTT derived from great-circle distance
//     (the paper reports 2 ms to >300 ms);
//   - per-path loss produced by a continuous-time congestion-episode
//     process (a time-driven Gilbert–Elliott chain): congestion episodes
//     arrive as a Poisson process and, while an episode lasts, packets are
//     lost with high probability. Episode durations are a fraction of the
//     path RTT, which is precisely the sub-RTT clustering the paper
//     measures, plus a small independent background loss.
//
// Everything is seeded and reproducible.
package planetlab

import "math"

// Site is one PlanetLab node from the paper's Table 1.
type Site struct {
	Host     string
	Location string
	Region   string // "CA", "US", "Canada", "Asia", "Europe", "SouthAmerica", "MiddleEast"
	Lat, Lon float64
}

// Sites returns the 26 measurement sites of the paper's Table 1, with
// approximate coordinates used to derive path RTTs.
func Sites() []Site {
	return []Site{
		{"planetlab2.cs.ucla.edu", "Los Angeles, CA", "CA", 34.07, -118.44},
		{"planetlab2.postel.org", "Marina Del Rey, CA", "CA", 33.98, -118.45},
		{"planet2.cs.ucsb.edu", "Santa Barbara, CA", "CA", 34.41, -119.85},
		{"planetlab11.millennium.berkeley.edu", "Berkeley, CA", "CA", 37.87, -122.26},
		{"planetlab1.nycm.internet2.planet-lab.org", "Marina del Rey, CA", "CA", 33.98, -118.45},
		{"planetlab2.kscy.internet2.planet-lab.org", "Marina del Rey, CA", "CA", 33.98, -118.45},
		{"planetlab3.cs.uoregon.edu", "Eugene, OR", "US", 44.05, -123.07},
		{"planetlab1.cs.ubc.ca", "Vancouver, Canada", "Canada", 49.26, -123.25},
		{"kupl1.ittc.ku.edu", "Lawrence, KS", "US", 38.96, -95.25},
		{"planetlab2.cs.uiuc.edu", "Urbana, IL", "US", 40.11, -88.23},
		{"planetlab2.tamu.edu", "College Station, TX", "US", 30.62, -96.34},
		{"planet.cc.gt.atl.ga.us", "Atlanta, GA", "US", 33.78, -84.40},
		{"planetlab2.uc.edu", "Cincinnati, Ohio", "US", 39.13, -84.52},
		{"planetlab-2.eecs.cwru.edu", "Cleveland, OH", "US", 41.50, -81.61},
		{"planetlab1.cs.duke.edu", "Durham, NC", "US", 36.00, -78.94},
		{"planetlab-10.cs.princeton.edu", "Princeton, NJ", "US", 40.35, -74.65},
		{"planetlab1.cs.cornell.edu", "Ithaca, NY", "US", 42.44, -76.48},
		{"planetlab2.isi.jhu.edu", "Baltimore, MD", "US", 39.33, -76.62},
		{"crt3.planetlab.umontreal.ca", "Montreal, Canada", "Canada", 45.50, -73.62},
		{"planet2.toronto.canet4.nodes.planet-lab.org", "Toronto, Canada", "Canada", 43.66, -79.40},
		{"planet1.cs.huji.ac.il", "Jerusalem, Israel", "MiddleEast", 31.78, 35.20},
		{"thu1.6planetlab.edu.cn", "Beijing, China", "Asia", 39.99, 116.32},
		{"lzu1.6planetlab.edu.cn", "Lanzhou, China", "Asia", 36.05, 103.86},
		{"planetlab2.iis.sinica.edu.tw", "Taipei, China", "Asia", 25.04, 121.61},
		{"planetlab1.cesnet.cz", "Czech", "Europe", 50.08, 14.42},
		{"planetlab1.larc.usp.br", "Brazil", "SouthAmerica", -23.56, -46.73},
	}
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// GreatCircleKm returns the haversine distance between two coordinates.
func GreatCircleKm(lat1, lon1, lat2, lon2 float64) float64 {
	const deg = math.Pi / 180
	dLat := (lat2 - lat1) * deg
	dLon := (lon2 - lon1) * deg
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*deg)*math.Cos(lat2*deg)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}
