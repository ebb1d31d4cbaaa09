"""Models of the closed-source SmartThings API surface (paper §V-B).

The paper manually modeled 173 API methods and 94 object property
accesses from the developer documentation, plus the 10 scheduling APIs
and the 21 sensitive SmartApp APIs treated as sinks (Table VI).  This
module is the registry the executor consults:

* :data:`SCHEDULING_APIS` — APIs that schedule method executions, with
  their delay/period semantics,
* :data:`SINK_APIS` — sensitive platform APIs that terminate a path as
  a rule action,
* :data:`PURE_APIS` — helpers whose return value is a fresh symbolic
  input or a simple function of their arguments,
* :data:`EVENT_PROPERTIES` / :data:`DEVICE_PROPERTIES` — object property
  models.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ScheduleModel:
    """Semantics of one scheduling API.

    ``delay_arg`` is the positional index of the delay argument (seconds)
    or ``None``; ``fixed_period``/``fixed_delay`` give static values in
    seconds; ``method_arg`` locates the scheduled method argument.
    """

    name: str
    method_arg: int
    delay_arg: int | None = None
    fixed_delay: float = 0.0
    fixed_period: float = 0.0
    trigger_attribute: str = "schedule"


# The 10 scheduling APIs the paper models, plus the undocumented
# `runDaily` that Camera Power Scheduler uses (paper §VIII-B).
SCHEDULING_APIS: dict[str, ScheduleModel] = {
    model.name: model
    for model in [
        ScheduleModel("runIn", method_arg=1, delay_arg=0),
        ScheduleModel("runOnce", method_arg=1, trigger_attribute="runOnce"),
        ScheduleModel("runEvery1Minute", method_arg=0, fixed_period=60,
                      trigger_attribute="every1Minute"),
        ScheduleModel("runEvery5Minutes", method_arg=0, fixed_period=300,
                      trigger_attribute="every5Minutes"),
        ScheduleModel("runEvery10Minutes", method_arg=0, fixed_period=600,
                      trigger_attribute="every10Minutes"),
        ScheduleModel("runEvery15Minutes", method_arg=0, fixed_period=900,
                      trigger_attribute="every15Minutes"),
        ScheduleModel("runEvery30Minutes", method_arg=0, fixed_period=1800,
                      trigger_attribute="every30Minutes"),
        ScheduleModel("runEvery1Hour", method_arg=0, fixed_period=3600,
                      trigger_attribute="every1Hour"),
        ScheduleModel("runEvery3Hours", method_arg=0, fixed_period=10800,
                      trigger_attribute="every3Hours"),
        ScheduleModel("schedule", method_arg=1, fixed_period=86400,
                      trigger_attribute="schedule"),
        # Undocumented but used in the wild; modeled after the paper's fix.
        ScheduleModel("runDaily", method_arg=1, fixed_period=86400,
                      trigger_attribute="runDaily"),
    ]
}


@dataclass(frozen=True, slots=True)
class SinkModel:
    """A sensitive platform API treated as a rule action (Table VI)."""

    name: str
    subject: str
    description: str


SINK_APIS: dict[str, SinkModel] = {
    model.name: model
    for model in [
        SinkModel("httpDelete", "network", "Executes an HTTP DELETE request"),
        SinkModel("httpGet", "network", "Executes an HTTP GET request"),
        SinkModel("httpHead", "network", "Executes an HTTP HEAD request"),
        SinkModel("httpPost", "network", "Executes an HTTP POST request"),
        SinkModel("httpPostJson", "network", "Executes an HTTP POST request (JSON)"),
        SinkModel("httpPut", "network", "Executes an HTTP PUT request"),
        SinkModel("httpPutJson", "network", "Executes an HTTP PUT request (JSON)"),
        SinkModel("sendHubCommand", "hub", "Sends a command to LAN devices via the hub"),
        SinkModel("sendSms", "notification", "Sends an SMS message"),
        SinkModel("sendSmsMessage", "notification", "Sends an SMS message"),
        SinkModel("setLocationMode", "location", "Sets the home mode"),
        SinkModel("sendPush", "notification", "Sends a push notification"),
        SinkModel("sendPushMessage", "notification", "Sends a push notification"),
        SinkModel("sendNotification", "notification", "Sends a notification"),
        SinkModel("sendNotificationEvent", "notification",
                  "Displays a message in Hello Home"),
        SinkModel("sendNotificationToContacts", "notification",
                  "Sends a notification to contacts"),
        SinkModel("sendLocationEvent", "location", "Raises a location event"),
        SinkModel("sendEvent", "event", "Raises a synthetic device event"),
        SinkModel("photoBurst", "camera", "Takes a burst of photos"),
        SinkModel("imageCapture", "camera", "Captures an image"),
        SinkModel("vacation", "location", "Runs vacation lighting"),
    ]
}

# Platform helpers whose return values are fresh symbolic inputs keyed
# by function name (uninterpreted functions for the solver).
PURE_APIS: set[str] = {
    "getSunriseAndSunset",
    "getWeatherFeature",
    "timeToday",
    "timeTodayAfter",
    "toDateTime",
    "random",
    "parseJson",
    "parseXml",
    "parseLanMessage",
    "getTemperatureScale",
    "fahrenheitToCelsius",
    "celsiusToFahrenheit",
    "textToSpeech",
}

# Boolean time-window helpers kept as uninterpreted predicates.
TIME_PREDICATES: set[str] = {
    "timeOfDayIsBetween",
}

# No-op lifecycle / bookkeeping APIs.
NOOP_APIS: set[str] = {
    "unsubscribe",
    "unschedule",
    "createAccessToken",
    "revokeAccessToken",
    "pause",
    "log",
    "httpError",
}

# Event object property model (paper: 94 object property accesses).
EVENT_PROPERTIES: dict[str, str] = {
    "value": "value",
    "stringValue": "value",
    "doubleValue": "numeric_value",
    "floatValue": "numeric_value",
    "integerValue": "numeric_value",
    "longValue": "numeric_value",
    "numberValue": "numeric_value",
    "numericValue": "numeric_value",
    "name": "attribute_name",
    "displayName": "display_name",
    "descriptionText": "description",
    "device": "device",
    "deviceId": "device_id",
    "date": "date",
    "dateValue": "date",
    "isoDate": "date",
    "jsonValue": "json",
    "xyzValue": "xyz",
    "unit": "unit",
    "source": "source",
    "isStateChange": "state_change",
    "isPhysical": "physical",
    "isDigital": "digital",
    "physical": "physical",
    "digital": "digital",
    "data": "data",
    "location": "location",
    "hubId": "hub",
    "installedSmartAppId": "app",
}

# Device object property model: properties that are not `current<Attr>`
# readers.
DEVICE_PROPERTIES: dict[str, str] = {
    "id": "device_id",
    "displayName": "display_name",
    "label": "display_name",
    "name": "type_name",
    "capabilities": "capabilities",
    "supportedAttributes": "attributes",
    "supportedCommands": "commands",
    "hub": "hub",
}

# Location object property model.
LOCATION_PROPERTIES: dict[str, str] = {
    "mode": "mode",
    "currentMode": "mode",
    "name": "name",
    "id": "id",
    "modes": "modes",
    "timeZone": "timezone",
    "latitude": "latitude",
    "longitude": "longitude",
    "zipCode": "zipcode",
    "temperatureScale": "temperature_scale",
    "contactBookEnabled": "contact_book",
    "currentState": "state",
}
