//! Entity profiles: schema-agnostic sets of name/value pairs.

use crate::tokenize::tokenize_into;

/// A single attribute of an entity profile.
///
/// Both the attribute name and its value are free text; this accommodates
/// relational records, RDF descriptions and semi-structured data alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (may be empty for schema-less values).
    pub name: String,
    /// Attribute value.
    pub value: String,
}

impl Attribute {
    /// Creates an attribute from a name and value.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            value: value.into(),
        }
    }
}

/// An entity profile: an external identifier plus a set of attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityProfile {
    /// External (source) identifier, e.g. the record key in the origin dataset.
    pub external_id: String,
    /// Attribute name/value pairs.
    pub attributes: Vec<Attribute>,
}

impl EntityProfile {
    /// Creates an empty profile with the given external identifier.
    pub fn new(external_id: impl Into<String>) -> Self {
        EntityProfile {
            external_id: external_id.into(),
            attributes: Vec::new(),
        }
    }

    /// Adds an attribute and returns `self` for builder-style construction.
    pub fn with_attribute(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push(Attribute::new(name, value));
        self
    }

    /// Adds an attribute in place.
    pub fn push_attribute(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.attributes.push(Attribute::new(name, value));
    }

    /// Returns every distinct schema-agnostic token appearing in any attribute
    /// value of this profile (the Token Blocking signature set).
    ///
    /// Tokens are deduplicated but the first-seen order is preserved, so the
    /// result is deterministic.
    pub fn value_tokens(&self) -> Vec<String> {
        let mut tokens = Vec::new();
        for attr in &self.attributes {
            tokenize_into(&attr.value, &mut tokens);
        }
        let mut seen = crate::fxhash::FxHashSet::default();
        tokens.retain(|t| seen.insert(t.clone()));
        tokens
    }

    /// Returns true if the profile has no attributes or only empty values.
    pub fn is_effectively_empty(&self) -> bool {
        self.attributes.iter().all(|a| a.value.trim().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EntityProfile {
        EntityProfile::new("e1")
            .with_attribute("model", "Apple iPhone X")
            .with_attribute("category", "Smartphone")
    }

    #[test]
    fn builder_accumulates_attributes() {
        let p = sample();
        assert_eq!(p.attributes.len(), 2);
        assert_eq!(p.attributes[0].name, "model");
        assert_eq!(p.attributes[0].value, "Apple iPhone X");
    }

    #[test]
    fn value_tokens_dedup_and_lowercase() {
        let p = EntityProfile::new("e")
            .with_attribute("a", "Samsung S20")
            .with_attribute("b", "samsung smartphone");
        assert_eq!(p.value_tokens(), vec!["samsung", "s20", "smartphone"]);
    }

    #[test]
    fn empty_profile_detection() {
        let mut p = EntityProfile::new("x");
        assert!(p.is_effectively_empty());
        p.push_attribute("note", "   ");
        assert!(p.is_effectively_empty());
        p.push_attribute("note", "phone");
        assert!(!p.is_effectively_empty());
    }

    #[test]
    fn tokens_of_example_profiles_match_figure_1() {
        // Entity e1 in Figure 1 produces blocks apple, iphone, x, smartphone.
        let e1 = EntityProfile::new("e1")
            .with_attribute("Model", "Apple iPhone X")
            .with_attribute("Category", "Smartphone");
        let tokens = e1.value_tokens();
        for expected in ["apple", "iphone", "x", "smartphone"] {
            assert!(tokens.contains(&expected.to_string()), "missing {expected}");
        }
    }
}
