"""Query layer: grammar, conjunctive evaluation, templates, free-form routing."""
