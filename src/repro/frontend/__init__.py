"""HomeGuard frontend (paper Fig. 6 right-hand side, Fig. 7b).

The frontend bridges the system and the user: the *rule interpreter*
shows what the app being installed will do, the *threat interpreter*
explains each detected CAI threat in a readable way, and the app screen
lets the user keep the app, reconfigure it, or delete it.
"""

from repro.frontend.threat_interpreter import describe_threat
from repro.frontend.ui import render_review
from repro.service.home import InstallDecision, InstallReview

__all__ = [
    "InstallDecision",
    "InstallReview",
    "describe_threat",
    "render_review",
]
