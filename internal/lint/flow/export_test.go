package flow

// FixtureLoader exposes the loader RunFixture shares to the black-box
// tests that load fixture packages themselves.
var FixtureLoader = fixtureLoader
